package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"specslice/internal/engine"
	"specslice/internal/funcptr"
	"specslice/internal/lang"
	"specslice/internal/sdg"
	"specslice/internal/store"
	"specslice/internal/workload"
)

// replaySamples bounds how many distinct programs of the traced window
// are replayed layer by layer.
const replaySamples = 12

// replay is one program pushed through the layers' entry points, each
// timed on its own.
type replay struct {
	bytes                   int
	parse                   time.Duration // lang.Parse + lang.Print
	build                   time.Duration // sdg.BuildWorkers
	modref, pdg, connect    time.Duration // its phases
	vertices, edges         int
	summaryFull             time.Duration // EnsureSummaryEdges on a cold engine
	encode                  time.Duration // Encoding()
	poststar                time.Duration // (*core.Encoding).Reachable
	snapshot                time.Duration // Engine.Snapshot
	get                     time.Duration // store.Get
	decode                  time.Duration // engine.FromSnapshot
	diskWarm                time.Duration // summary+encode+Poststar on the decoded engine
	advance, summaryPartial time.Duration // Advance from the ancestor, then its partial summary
	advWarm                 time.Duration // encode+Poststar of the advanced engine
}

// replayVersion replays one program. For edited versions the Advance
// replay starts from the version's real ancestor; otherwise from the
// program itself through one seeded edit.
func replayVersion(v *version, st *store.Store, key string) (*replay, error) {
	src := v.source()
	r := &replay{bytes: len(src)}
	t := time.Now()
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	_ = lang.Print(prog)
	r.parse = time.Since(t)
	prog, _, err = funcptr.Transform(prog)
	if err != nil {
		return nil, err
	}

	t = time.Now()
	g, err := sdg.BuildWorkers(prog, 0)
	if err != nil {
		return nil, err
	}
	r.build = time.Since(t)
	bs := g.BuildStats()
	r.modref, r.pdg, r.connect = bs.ModRef, bs.PDG, bs.Connect
	r.vertices, r.edges = g.NumVertices(), g.NumEdges()

	e := engine.New(g)
	t = time.Now()
	e.EnsureSummaryEdges()
	r.summaryFull = time.Since(t)
	t = time.Now()
	enc := e.Encoding()
	r.encode = time.Since(t)
	t = time.Now()
	if _, err := enc.Reachable(); err != nil {
		return nil, err
	}
	r.poststar = time.Since(t)

	t = time.Now()
	data, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	r.snapshot = time.Since(t)
	if err := st.Put(key, key, data); err != nil {
		return nil, err
	}
	t = time.Now()
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		return nil, fmt.Errorf("store get: ok=%v err=%v", ok, err)
	}
	r.get = time.Since(t)
	t = time.Now()
	de, err := engine.FromSnapshot(got)
	if err != nil {
		return nil, err
	}
	r.decode = time.Since(t)
	t = time.Now()
	if err := de.Warm(); err != nil {
		return nil, err
	}
	r.diskWarm = time.Since(t)

	anc, next := e, prog
	if v.ancestor != nil {
		ap, err := lang.Parse(v.ancestor.source())
		if err != nil {
			return nil, err
		}
		ag, err := sdg.Build(ap)
		if err != nil {
			return nil, err
		}
		anc = engine.New(ag)
		anc.EnsureSummaryEdges()
	} else {
		ed := workload.NewEditor(prog, int64(len(src)))
		ed.Step()
		next = ed.Program()
	}
	t = time.Now()
	ne, _, err := anc.Advance(next)
	if err != nil {
		return nil, err
	}
	r.advance = time.Since(t)
	t = time.Now()
	ne.EnsureSummaryEdges()
	r.summaryPartial = time.Since(t)
	t = time.Now()
	if err := ne.Warm(); err != nil {
		return nil, err
	}
	r.advWarm = time.Since(t)
	return r, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceReport turns the traced window into per-layer metrics and a
// latency decomposition. untraced is the window run just before with the
// tracing wrappers off; the difference is the tracing overhead.
func traceReport(in *instance, untraced, traced *windowResult, chk checkReport, tmp string) (map[string]metric, []string, error) {
	sp := in.spec
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	// Link each op's spans by its id.
	type opSpans struct{ router, worker time.Duration }
	byOp := map[int64]*opSpans{}
	for _, s := range traced.spans {
		o := byOp[s.op]
		if o == nil {
			o = &opSpans{}
			byOp[s.op] = o
		}
		if s.layer == "router" {
			o.router = s.end.Sub(s.start)
		} else {
			o.worker = s.end.Sub(s.start)
		}
	}

	// Replays over an even sample of the distinct programs traced.
	seen := map[int]bool{}
	var vers []int
	for _, r := range traced.records {
		if r.fail == "" && !seen[r.ver] {
			seen[r.ver] = true
			vers = append(vers, r.ver)
		}
	}
	sort.Ints(vers)
	var sample []int
	for i := 0; i < replaySamples && i < len(vers); i++ {
		sample = append(sample, vers[i*len(vers)/min(replaySamples, len(vers))])
	}
	rdir := filepath.Join(tmp, "replay-store")
	st, err := store.Open(rdir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	var reps []*replay
	for i, v := range sample {
		r, err := replayVersion(in.plan.versions[v], st, fmt.Sprintf("replay-%d", i))
		if err != nil {
			st.Close()
			return nil, nil, fmt.Errorf("replay of program %d: %w", v, err)
		}
		reps = append(reps, r)
	}
	st.Close()
	os.RemoveAll(rdir)
	rmean := func(f func(*replay) time.Duration) float64 {
		if len(reps) == 0 {
			return 0
		}
		var s time.Duration
		for _, r := range reps {
			s += f(r)
		}
		return ms(s) / float64(len(reps))
	}
	var parseBytes int
	var parseNs time.Duration
	for _, r := range reps {
		parseBytes += r.bytes
		parseNs += r.parse
	}
	parseNsPerByte := 0.0
	if parseBytes > 0 {
		parseNsPerByte = float64(parseNs) / float64(parseBytes)
	}

	// Per-op sums over the successful traced ops.
	var n, hits, monoN float64
	var lat, resid, clusterSelf, handler, hitOver, wall, prestar, det, mini, autom, readout, encPh, mono, parse, emit float64
	var variants, polyN, srcKB, results float64
	var buildEst float64
	d := traced.delta
	// sdgPhase is a cold-build phase per build from the window's build
	// block, or from the replays when the window built nothing cold.
	sdgPhase := func(stat int64, f func(*replay) time.Duration) float64 {
		if d.buildsTimed > 0 {
			return float64(stat) / 1e6 / float64(d.buildsTimed)
		}
		return rmean(f)
	}
	coldEst := sdgPhase(d.build.TotalNS, func(r *replay) time.Duration { return r.build }) + rmean(func(r *replay) time.Duration { return r.summaryFull + r.encode + r.poststar })
	advEst := rmean(func(r *replay) time.Duration { return r.advance + r.summaryPartial + r.advWarm })
	diskEst := rmean(func(r *replay) time.Duration { return r.get + r.decode + r.diskWarm })
	emitNsPerByte := 0.0
	if chk.emitBytes > 0 {
		emitNsPerByte = float64(chk.emitNs) / float64(chk.emitBytes)
	}
	for _, r := range traced.records {
		sp2, ok := byOp[r.id]
		if r.fail != "" || !ok || sp2.worker == 0 || (sp.routed && sp2.router == 0) {
			continue
		}
		n++
		l := ms(r.latency)
		lat += l
		w := ms(sp2.worker)
		outer := w
		if sp.routed {
			outer = ms(sp2.router)
			clusterSelf += outer - w
		}
		resid += l - outer
		handler += w
		wl := float64(r.wallNs) / 1e6
		wall += wl
		if r.hit {
			hits++
			hitOver += w - wl
		}
		prestar += float64(r.phases.PrestarNS) / 1e6
		det += float64(r.phases.DeterminizeNS) / 1e6
		mini += float64(r.phases.MinimizeNS) / 1e6
		autom += float64(r.phases.AutomatonNS) / 1e6
		readout += float64(r.phases.ReadoutNS) / 1e6
		encPh += float64(r.phases.EncodeNS) / 1e6
		parse += parseNsPerByte * float64(r.bytes) / 1e6
		for _, res := range r.results {
			results++
			srcKB += float64(res.srcBytes) / 1024
			emit += emitNsPerByte * float64(res.srcBytes) / 1e6
			if res.mode == "mono" {
				monoN++
				mono += float64(res.durNs) / 1e6
			} else {
				polyN++
				variants += float64(res.variants)
			}
		}
		switch tierOf(r) {
		case "cold":
			buildEst += coldEst
		case "advance":
			buildEst += advEst
		case "disk":
			buildEst += diskEst
		}
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("traced window has no linked ops")
	}
	per := func(x float64) float64 { return x / n }
	perOr0 := func(x, k float64) float64 {
		if k == 0 {
			return 0
		}
		return x / k
	}

	// Decomposition of the mean client latency into self times. Spans and
	// response phases are measured; build, parse, and emit are estimates
	// from the replays; each "other" row is its parent minus its rows, so
	// the rows sum to the client latency exactly.
	autoOther := autom - det - mini
	sliceOther := wall - prestar - autom - readout - encPh - mono
	serverOther := handler - buildEst - wall - emit - parse
	rows := []struct {
		name, source string
		v            float64
	}{
		{"client.residual (client span - outermost handler)", "span", resid},
		{"cluster.self (router - worker)", "span", clusterSelf},
		{"server.build (tier mix x replayed build path)", "replay+stats", buildEst},
		{"lang.parse (worker, bytes x replayed rate)", "replay", parse},
		{"emit.source (bytes x replayed rate)", "replay", emit},
		{"pds.prestar", "phases", prestar},
		{"fsa.determinize", "phases", det},
		{"fsa.minimize", "phases", mini},
		{"fsa.automaton_other", "phases", autoOther},
		{"core.readout", "phases", readout},
		{"core.encode (in batch)", "phases", encPh},
		{"mono.slice", "durations", mono},
		{"engine.sliceall_other (wall - phases)", "residual", sliceOther},
		{"server.other (handler - build - wall - parse - emit)", "residual", serverOther},
	}
	var lines []string
	lines = append(lines, fmt.Sprintf("trace: %s mean client latency %.3f ms over %.0f linked ops; self times:", sp.name, per(lat), n))
	var sum float64
	for _, r := range rows {
		sum += r.v
		lines = append(lines, fmt.Sprintf("trace:   %-56s %9.3f ms %6.1f%%  [%s]", r.name, per(r.v), 100*r.v/lat, r.source))
	}
	lines = append(lines, fmt.Sprintf("trace:   %-56s %9.3f ms (client latency %.3f ms)", "sum", per(sum), per(lat)))

	uP50 := quantile(latencies(untraced.records), 0.5)
	tP50 := quantile(latencies(traced.records), 0.5)
	lines = append(lines, fmt.Sprintf("trace: overhead: traced p50 %.3f ms vs untraced p50 %.3f ms (%+.3f ms; %d vs %d ops)",
		tP50, uP50, tP50-uP50, len(traced.records), len(untraced.records)))

	c := d.cache
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	skew := 1.0
	if len(d.shardRouted) > 0 {
		var tot, mx int64
		for _, r := range d.shardRouted {
			tot += r
			mx = max(mx, r)
		}
		if tot > 0 {
			skew = float64(mx) / (float64(tot) / float64(len(d.shardRouted)))
		}
	}
	// slice.summary follows the tier mix: the full fixpoint for cold
	// builds, the partial one for advances.
	summary := rmean(func(r *replay) time.Duration { return r.summaryFull })
	if c.Advances > 0 {
		summary = (float64(c.ColdBuilds)*summary + float64(c.Advances)*rmean(func(r *replay) time.Duration { return r.summaryPartial })) / float64(c.ColdBuilds+c.Advances)
	}
	ops := float64(len(traced.records))

	set("trace.latency_ms", per(lat), "ms")
	set("trace.overhead_ms", tP50-uP50, "ms")
	set("client.residual_ms", per(resid), "ms")
	set("cluster.self_ms", per(clusterSelf), "ms")
	set("cluster.shard_skew", skew, "ratio")
	set("cluster.dedup_waits", float64(d.dedupWaits), "count")
	set("cluster.retries", float64(d.retries), "count")
	set("cluster.shed", float64(d.shed), "count")
	set("server.handler_ms", per(handler), "ms")
	set("server.hit_overhead_ms", perOr0(hitOver, hits), "ms")
	set("server.other_ms", per(serverOther), "ms")
	set("server.build_ms", per(buildEst), "ms")
	set("server.hit_ratio", ratio(c.Hits, c.Hits+c.Misses), "ratio")
	set("server.advance_ratio", ratio(c.Advances, c.Builds), "ratio")
	set("server.dedup_ratio", ratio(c.Deduped, c.Misses), "ratio")
	set("server.evictions", float64(c.Evictions), "count")
	set("lang.parse_ms", per(parse), "ms")
	set("lang.parse_mb_per_s", perOr0(float64(parseBytes)/(1<<20), float64(parseNs)/1e9), "MB/s")
	set("sdg.build_ms", sdgPhase(d.build.TotalNS, func(r *replay) time.Duration { return r.build }), "ms")
	set("sdg.pdg_ms", sdgPhase(d.build.PDGNS, func(r *replay) time.Duration { return r.pdg }), "ms")
	set("sdg.connect_ms", sdgPhase(d.build.ConnectNS, func(r *replay) time.Duration { return r.connect }), "ms")
	set("dataflow.modref_ms", sdgPhase(d.build.ModRefNS, func(r *replay) time.Duration { return r.modref }), "ms")
	set("sdg.advance_ms", rmean(func(r *replay) time.Duration { return r.advance }), "ms")
	var vtx, edg float64
	for _, r := range reps {
		vtx += float64(r.vertices)
		edg += float64(r.edges)
	}
	set("sdg.vertices", perOr0(vtx, float64(len(reps))), "count")
	set("sdg.edges", perOr0(edg, float64(len(reps))), "count")
	set("slice.summary_ms", summary, "ms")
	set("core.encode_ms", rmean(func(r *replay) time.Duration { return r.encode }), "ms")
	set("core.readout_ms", per(readout), "ms")
	set("core.variants_per_slice", perOr0(variants, polyN), "count")
	set("pds.poststar_ms", rmean(func(r *replay) time.Duration { return r.poststar }), "ms")
	set("pds.prestar_ms", per(prestar), "ms")
	set("fsa.determinize_ms", per(det), "ms")
	set("fsa.minimize_ms", per(mini), "ms")
	set("mono.slice_ms", perOr0(mono, monoN), "ms")
	set("emit.source_ms", perOr0(emit, results), "ms")
	set("emit.kb_per_slice", perOr0(srcKB, results), "KB")
	set("engine.sliceall_ms", per(wall), "ms")
	set("engine.other_ms", per(sliceOther), "ms")
	set("engine.footprint_mb", perOr0(float64(c.Bytes)/(1<<20), float64(c.Entries)), "MB")
	set("store.snapshot_encode_ms", rmean(func(r *replay) time.Duration { return r.snapshot }), "ms")
	set("store.persist_drop_ratio", ratio(d.persistDropped, c.Builds), "ratio")
	set("store.get_ms", rmean(func(r *replay) time.Duration { return r.get }), "ms")
	set("store.snapshot_decode_ms", rmean(func(r *replay) time.Duration { return r.decode }), "ms")
	set("store.disk_hit_ratio", ratio(c.DiskHits, c.Misses), "ratio")
	set("store.bytes_on_disk", float64(d.bytesOnDisk), "bytes")
	set("store.disk_loads_failed", float64(d.diskLoadsFailed), "count")
	var opens time.Duration
	for _, o := range traced.opens {
		opens += o
	}
	set("store.open_ms", perOr0(ms(opens), float64(len(traced.opens))), "ms")
	set("runtime.gc_cycles_per_op", perOr0(float64(traced.rt1.gcCycles-traced.rt0.gcCycles), ops), "count")
	set("runtime.gc_pause_ms", 1e3*histDeltaQuantile(traced.rt0.gcPauses, traced.rt1.gcPauses, 0.99), "ms")
	set("runtime.sched_latency_p99_ms", 1e3*histDeltaQuantile(traced.rt0.schedLat, traced.rt1.schedLat, 0.99), "ms")
	set("check.byte_ops", float64(chk.byteOps), "count")
	set("check.interp_ops", float64(chk.interpOps), "count")
	return m, lines, nil
}

func latencies(recs []record) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, ms(r.latency))
	}
	return out
}
