package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"specslice"
	"specslice/internal/cluster"
	"specslice/internal/server"
	"specslice/internal/store"
)

// nSessions is the closed-loop client count: one per core of the 2-core
// hosts the benchmark targets, each an IDE user waiting for its slice.
const nSessions = 2

// spec describes one workload.
type spec struct {
	name    string
	routed  bool
	workers int
	store   bool
	cfg     server.Config
	// tier is the build tier every measured op must be served by: "hit",
	// "cold", "disk", or "miss" (advance or cold, split reported).
	tier string
}

// Batches run their criteria on one goroutine: the two sessions already
// occupy both cores, and sequential criteria make the response's phase
// timings nest inside its batch wall time. edit_advance and cold_open
// never re-read an old version, so a small entry bound only keeps dead
// engines from filling the heap (the newest version of each family, all
// an advance needs, is always cached).
var specs = map[string]spec{
	// Cache bounds sit far above the 16-family corpus: no evictions.
	"warm_read":    {name: "warm_read", routed: true, workers: 2, tier: "hit", cfg: server.Config{Workers: 1, CacheMaxEntries: 256, CacheMaxBytes: 8 << 30}},
	"edit_advance": {name: "edit_advance", workers: 1, store: true, tier: "miss", cfg: server.Config{Workers: 1, CacheMaxEntries: 8}},
	"cold_open":    {name: "cold_open", routed: true, workers: 2, tier: "cold", cfg: server.Config{Workers: 1, CacheMaxEntries: 8}},
	"disk_restart": {name: "disk_restart", workers: 1, store: true, tier: "disk", cfg: server.Config{Workers: 1, CacheMaxEntries: 256, CacheMaxBytes: 8 << 30}},
}

// instance is a set-up workload ready to measure.
type instance struct {
	spec     spec
	plan     *plan
	topo     *topology
	client   *client
	pairs    *pairs
	spans    *spanLog
	storeDir string
	cursor   [nSessions]int
	round    int
}

// setUp generates the workload's inputs and brings its service to the
// state the window measures: servers started, corpus preloaded and
// warmed, and for disk_restart the snapshot store populated and closed.
func setUp(sp spec, seed int64, seconds float64, tmp string) (*instance, error) {
	p, err := buildPlan(sp.name, seed, seconds, nSessions)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	in := &instance{spec: sp, plan: p, pairs: newPairs(), spans: &spanLog{}}
	cfg := sp.cfg
	if sp.store {
		dir, err := os.MkdirTemp(tmp, "store-")
		if err != nil {
			return nil, err
		}
		in.storeDir = dir
		cfg.StoreDir = dir
	}
	if in.topo, err = startTopology(sp.workers, sp.routed, cfg, in.spans); err != nil {
		return nil, err
	}
	in.client = newClient(in.topo.base, p, in.pairs)
	for _, o := range append(append([]op(nil), p.preload...), p.warmup...) {
		if r := in.client.do(o); r.fail != "" {
			in.tearDown()
			return nil, fmt.Errorf("preload: %s", r.fail)
		}
	}
	if sp.name == "disk_restart" {
		if err := in.sealStore(); err != nil {
			in.tearDown()
			return nil, err
		}
	}
	return in, nil
}

// sealStore closes the populating server (flushing its write-behind
// queue and writing the clean-shutdown marker) and checks that every
// corpus program reached the disk.
func (in *instance) sealStore() error {
	st, err := fetchStats(in.client.http, in.topo.base)
	if err != nil {
		return err
	}
	if st.Store == nil || st.Store.PersistDropped != 0 {
		return fmt.Errorf("store population dropped snapshots")
	}
	err = in.topo.close()
	in.topo = nil
	if err != nil {
		return fmt.Errorf("close populating server: %w", err)
	}
	s, err := store.Open(in.storeDir, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	for _, o := range in.plan.preload {
		prog, err := specslice.Parse(in.plan.versions[o.ver].source())
		if err != nil {
			return err
		}
		if !s.Has(server.ContentKey(prog.Source())) {
			return fmt.Errorf("store population: program %d missing on disk", o.ver)
		}
	}
	return nil
}

func (in *instance) tearDown() {
	if in.client != nil {
		in.client.close()
	}
	if in.topo != nil {
		in.topo.close()
		in.topo = nil
	}
	if in.storeDir != "" {
		os.RemoveAll(in.storeDir)
	}
}

// windowResult is what one measured window observed.
type windowResult struct {
	records  []record
	elapsed  time.Duration
	cpu      time.Duration
	rt0, rt1 runtimeSample
	resident float64 // bytes, see residentSampler.Stop
	delta    statsDelta
	spans    []span
	// opens times each disk_restart server start (store recovery).
	opens []time.Duration
}

// measure runs one closed-loop window of length d.
func (in *instance) measure(d time.Duration, traced bool) (*windowResult, error) {
	w := &windowResult{}
	var mu sync.Mutex
	do := func(_ int, o op) {
		r := in.client.do(o)
		mu.Lock()
		w.records = append(w.records, r)
		mu.Unlock()
	}
	in.spans.on.Store(traced)
	defer in.spans.on.Store(false)
	w.rt0 = readRuntime()
	rs := startResidentSampler()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	if in.spec.name == "disk_restart" {
		if err := in.restartRounds(deadline, w, do); err != nil {
			rs.Stop()
			return nil, err
		}
	} else {
		before, err := fetchStats(in.client.http, in.topo.base)
		if err != nil {
			rs.Stop()
			return nil, err
		}
		next := func(s int) (op, bool) {
			ops := in.plan.sessions[s]
			i := in.cursor[s]
			if i >= len(ops) {
				if !in.plan.wrap {
					return op{}, false
				}
				i = 0
			}
			in.cursor[s] = i + 1
			return ops[i], true
		}
		sessions(nSessions, deadline, next, do)
		after, err := fetchStats(in.client.http, in.topo.base)
		if err != nil {
			rs.Stop()
			return nil, err
		}
		w.delta = diffStats(before, after)
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.resident = rs.Stop()
	w.rt1 = readRuntime()
	w.spans = in.spans.take()
	return w, nil
}

// restartRounds is disk_restart's window: each round opens a fresh
// server on the populated store, lets the sessions first-touch every
// corpus program once, and closes the server again.
func (in *instance) restartRounds(deadline time.Time, w *windowResult, do func(int, op)) error {
	cfg := in.spec.cfg
	cfg.StoreDir = in.storeDir
	for time.Now().Before(deadline) && in.round < len(in.plan.rounds) {
		t0 := time.Now()
		topo, err := startTopology(1, false, cfg, in.spans)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		w.opens = append(w.opens, time.Since(t0))
		in.topo = topo
		in.client.base = topo.base
		before, err := fetchStats(in.client.http, topo.base)
		if err != nil {
			return err
		}
		round := in.plan.rounds[in.round]
		in.round++
		var next atomic.Int64
		sessions(nSessions, deadline, func(int) (op, bool) {
			i := next.Add(1) - 1
			if int(i) >= len(round) {
				return op{}, false
			}
			return round[i], true
		}, do)
		after, err := fetchStats(in.client.http, topo.base)
		if err != nil {
			return err
		}
		w.delta.add(diffStats(before, after))
		in.client.close()
		err = topo.close()
		in.topo = nil
		if err != nil {
			return fmt.Errorf("close restarted server: %w", err)
		}
	}
	return nil
}

// statsDelta is the movement of /v1/stats over a window (levels for
// gauges such as cache bytes).
type statsDelta struct {
	cache       server.CacheStats
	build       specslice.BuildStats
	buildsTimed int64
	phases      specslice.Timings
	// Store block.
	diskLoadsFailed, persistDropped, bytesOnDisk int64
	// Router block and per-shard forwards.
	dedupWaits, retries, shed int64
	shardRouted               []int64
}

func diffStats(a, b *cluster.StatsResponse) statsDelta {
	c := b.Cache
	c.Hits -= a.Cache.Hits
	c.Misses -= a.Cache.Misses
	c.Deduped -= a.Cache.Deduped
	c.Builds -= a.Cache.Builds
	c.Advances -= a.Cache.Advances
	c.ColdBuilds -= a.Cache.ColdBuilds
	c.DiskHits -= a.Cache.DiskHits
	c.BuildErrors -= a.Cache.BuildErrors
	c.Evictions -= a.Cache.Evictions
	d := statsDelta{cache: c, buildsTimed: b.BuildsTimed - a.BuildsTimed}
	d.build = b.Build
	d.build.ModRefNS -= a.Build.ModRefNS
	d.build.ModRefInternNS -= a.Build.ModRefInternNS
	d.build.ModRefLocalNS -= a.Build.ModRefLocalNS
	d.build.ModRefFixpointNS -= a.Build.ModRefFixpointNS
	d.build.PDGNS -= a.Build.PDGNS
	d.build.ConnectNS -= a.Build.ConnectNS
	d.build.TotalNS -= a.Build.TotalNS
	d.phases = b.Phases
	d.phases.EncodeNS -= a.Phases.EncodeNS
	d.phases.PrestarNS -= a.Phases.PrestarNS
	d.phases.AutomatonNS -= a.Phases.AutomatonNS
	d.phases.DeterminizeNS -= a.Phases.DeterminizeNS
	d.phases.MinimizeNS -= a.Phases.MinimizeNS
	d.phases.ReadoutNS -= a.Phases.ReadoutNS
	d.phases.TotalNS -= a.Phases.TotalNS
	if a.Store != nil && b.Store != nil {
		d.diskLoadsFailed = b.Store.DiskLoadsFailed - a.Store.DiskLoadsFailed
		d.persistDropped = b.Store.PersistDropped - a.Store.PersistDropped
		d.bytesOnDisk = b.Store.BytesOnDisk
	}
	d.dedupWaits = b.Router.DedupWaits - a.Router.DedupWaits
	d.retries = b.Router.Retries - a.Router.Retries
	d.shed = b.Router.ShardShed + b.Router.TenantShed - a.Router.ShardShed - a.Router.TenantShed
	for i, s := range b.Shards {
		r := s.Routed
		if i < len(a.Shards) {
			r -= a.Shards[i].Routed
		}
		d.shardRouted = append(d.shardRouted, r)
	}
	return d
}

// add accumulates another window's (or restart round's) delta.
func (d *statsDelta) add(o statsDelta) {
	c := &d.cache
	c.Hits += o.cache.Hits
	c.Misses += o.cache.Misses
	c.Deduped += o.cache.Deduped
	c.Builds += o.cache.Builds
	c.Advances += o.cache.Advances
	c.ColdBuilds += o.cache.ColdBuilds
	c.DiskHits += o.cache.DiskHits
	c.BuildErrors += o.cache.BuildErrors
	c.Evictions += o.cache.Evictions
	c.Entries, c.Bytes = o.cache.Entries, o.cache.Bytes
	d.build.Add(o.build)
	d.buildsTimed += o.buildsTimed
	d.phases.Add(o.phases)
	d.diskLoadsFailed += o.diskLoadsFailed
	d.persistDropped += o.persistDropped
	d.bytesOnDisk = o.bytesOnDisk
	d.dedupWaits += o.dedupWaits
	d.retries += o.retries
	d.shed += o.shed
}

// tierOf names the tier a response reports.
func tierOf(r record) string {
	switch {
	case r.hit:
		return "hit"
	case r.deduped:
		return "deduped"
	case r.advanced:
		return "advance"
	case r.disk:
		return "disk"
	default:
		return "cold"
	}
}

// guardTiers marks ops served by another tier than the workload's as
// failed, and cross-checks the per-op tiers against the /v1/stats
// deltas. It returns a reason when the mix is wrong.
func guardTiers(sp spec, recs []record, d statsDelta) string {
	served := map[string]int64{}
	var ok int64
	reason := ""
	for i := range recs {
		r := &recs[i]
		if len(r.results) == 0 { // never reached the cache
			continue
		}
		ok++
		t := tierOf(*r)
		served[t]++
		want := t == sp.tier || (sp.tier == "miss" && (t == "advance" || t == "cold"))
		if !want && r.fail == "" {
			r.fail = fmt.Sprintf("tier: served by %s, workload wants %s", t, sp.tier)
		}
	}
	if served[sp.tier] != ok && sp.tier != "miss" {
		reason = fmt.Sprintf("tier mix: %v of %d ops, want all %s", served, ok, sp.tier)
	}
	c := d.cache
	var stats bool
	switch sp.tier {
	case "hit":
		stats = c.Hits == ok && c.Misses == 0
	case "cold":
		stats = c.ColdBuilds == ok && c.Misses == ok
	case "disk":
		stats = c.DiskHits == ok && c.Misses == ok
	case "miss":
		stats = c.Misses == ok && c.Advances+c.ColdBuilds == ok && c.Deduped == 0
	}
	if !stats && reason == "" {
		reason = fmt.Sprintf("tier mix: stats deltas hits=%d misses=%d advances=%d cold=%d disk=%d deduped=%d over %d ops, want all %s",
			c.Hits, c.Misses, c.Advances, c.ColdBuilds, c.DiskHits, c.Deduped, ok, sp.tier)
	}
	return reason
}

func tmpRoot(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
