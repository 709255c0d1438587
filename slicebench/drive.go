package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"specslice"
	"specslice/internal/server"
)

// record is one completed op as the client saw it.
type record struct {
	id      int64
	ver     int
	crits   []server.CriterionRequest
	bytes   int // request program size
	start   time.Time
	latency time.Duration
	// fail is the reason the op failed ("" when it succeeded): transport
	// error, non-200 status, criterion error, or (filled in after the
	// window) an output-check or tier-guard failure.
	fail string
	// The response, minus the emitted text (checked on arrival, then
	// dropped so a run's records stay small).
	hit, deduped, advanced, disk bool
	wallNs                       int64
	phases                       specslice.Timings
	results                      []result
}

// result is one criterion's outcome.
type result struct {
	mode     string
	durNs    int64
	variants int
	srcBytes int
}

// pairKey identifies one (version, criterion) response.
type pairKey struct {
	ver  int
	crit string
}

func critKey(c server.CriterionRequest) string {
	return fmt.Sprintf("%s|%s|%d|%s|%s", c.Kind, c.Proc, c.Line, c.Stmt, c.Mode)
}

// pairs keeps the first response source of every distinct (version,
// criterion) pair; later responses for the pair are compared against it
// as they arrive, and the first one against a from-scratch slice after
// the window.
type pairs struct {
	mu    sync.Mutex
	first map[pairKey]string
	// crits remembers each pair's criterion for the after-window check.
	crits map[pairKey]server.CriterionRequest
	// bad marks pairs whose responses disagreed or failed a check.
	bad map[pairKey]string
}

func newPairs() *pairs {
	return &pairs{first: map[pairKey]string{}, crits: map[pairKey]server.CriterionRequest{}, bad: map[pairKey]string{}}
}

// observe records one result source and reports whether it agrees with
// earlier responses for the same pair.
func (p *pairs) observe(k pairKey, c server.CriterionRequest, src string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev, ok := p.first[k]
	if !ok {
		p.first[k] = src
		p.crits[k] = c
		return true
	}
	if prev != src {
		p.bad[k] = "response differs from an earlier response for the same input"
		return false
	}
	return true
}

// client sends ops to one base URL.
type client struct {
	http   *http.Client
	base   string
	plan   *plan
	pairs  *pairs
	nextID atomic.Int64
	// programJSON caches each version's JSON-escaped text when the plan
	// sends versions repeatedly.
	programJSON sync.Map
}

func newClient(base string, p *plan, prs *pairs) *client {
	return &client{
		http: &http.Client{
			Timeout:   3 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
		base:  base,
		plan:  p,
		pairs: prs,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) programBytes(ver int) []byte {
	if b, ok := c.programJSON.Load(ver); ok {
		return b.([]byte)
	}
	b, _ := json.Marshal(c.plan.versions[ver].source())
	if c.plan.cacheJSON {
		c.programJSON.Store(ver, b)
	}
	return b
}

// body renders the request: the program plus criteria labelled with the
// op id, so tracing wrappers and results can be linked to the op.
func (c *client) body(id int64, o op) []byte {
	prog := c.programBytes(o.ver)
	crits := make([]server.CriterionRequest, len(o.crits))
	for i, cr := range o.crits {
		cr.Label = fmt.Sprintf("op%d", id)
		if i > 0 {
			cr.Label += fmt.Sprintf(".%d", i)
		}
		crits[i] = cr
	}
	cj, _ := json.Marshal(crits)
	var b bytes.Buffer
	b.Grow(len(prog) + len(cj) + 32)
	b.WriteString(`{"program":`)
	b.Write(prog)
	b.WriteString(`,"criteria":`)
	b.Write(cj)
	b.WriteString("}")
	return b.Bytes()
}

// do sends one op and returns its record. Latency runs from send until
// the response is fully decoded.
func (c *client) do(o op) record {
	id := c.nextID.Add(1)
	body := c.body(id, o)
	rec := record{id: id, ver: o.ver, crits: o.crits, bytes: len(body)}
	rec.start = time.Now()
	resp, err := c.http.Post(c.base+"/v1/slice", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.latency = time.Since(rec.start)
		rec.fail = "transport: " + err.Error()
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sr server.SliceResponse
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &sr)
	}
	rec.latency = time.Since(rec.start)
	switch {
	case err != nil:
		rec.fail = "response: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		rec.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	case len(sr.Results) != len(o.crits):
		rec.fail = fmt.Sprintf("%d results for %d criteria", len(sr.Results), len(o.crits))
	}
	if rec.fail != "" {
		return rec
	}
	rec.hit, rec.deduped, rec.advanced, rec.disk = sr.CacheHit, sr.Deduped, sr.Advanced, sr.DiskWarm
	rec.wallNs, rec.phases = int64(sr.Stats.Wall), sr.Stats.Phases
	for i, r := range sr.Results {
		if r.Error != "" && rec.fail == "" {
			rec.fail = "criterion: " + r.Error
		}
		if !c.pairs.observe(pairKey{o.ver, critKey(o.crits[i])}, o.crits[i], r.Source) && rec.fail == "" {
			rec.fail = "output: response differs from an earlier response for the same input"
		}
		res := result{mode: r.Mode, durNs: r.DurationNS, srcBytes: len(r.Source)}
		for _, n := range r.VariantCounts {
			res.variants += n
		}
		rec.results = append(rec.results, res)
	}
	return rec
}

// sessions runs n closed-loop sessions until the deadline: each sends its
// next op only after the previous response arrived. next returns false
// when a session has no more input.
func sessions(n int, deadline time.Time, next func(s int) (op, bool), do func(s int, o op)) {
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o, ok := next(s)
				if !ok {
					return
				}
				do(s, o)
			}
		}(s)
	}
	wg.Wait()
}
