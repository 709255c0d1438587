package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"specslice"
	"specslice/internal/server"
)

// interpSteps bounds the interpreter run of an original program; programs
// that do not finish within it get no behaviour check.
const interpSteps = 50_000

// checkReport summarizes the after-window output checks.
type checkReport struct {
	// pairs counts distinct (version, criterion) responses compared byte
	// for byte with a from-scratch library slice; interpPairs those whose
	// slice was also executed and compared with the original's output.
	pairs, interpPairs int
	// byteOps and interpOps count the ops those checks covered.
	byteOps, interpOps int
	// emitNs and emitBytes total the from-scratch slices' Slice.Source
	// calls — a replay of emit.Source on every distinct response.
	emitNs, emitBytes int64
}

// verify re-slices every distinct (version, criterion) pair from scratch
// through the public library — parse, normalize, build, slice, emit, as a
// fresh process would — and compares it with the first response the
// service gave for the pair; the service's later responses for the pair
// were already compared with that first one as they arrived. printf
// criteria on programs the interpreter runs to completion within
// interpSteps are also executed: the slice must print what the original
// prints. Failures are recorded in prs.bad.
func verify(p *plan, prs *pairs, recs []record) checkReport {
	byVer := map[int][]pairKey{}
	for k := range prs.first {
		byVer[k.ver] = append(byVer[k.ver], k)
	}
	vers := make([]int, 0, len(byVer))
	for v := range byVer {
		vers = append(vers, v)
	}
	slices.Sort(vers)

	// Salted copies of one base behave identically, so whether the
	// original finishes within the step budget is decided once per base.
	var termMu sync.Mutex
	terminates := map[*base]bool{}

	var mu sync.Mutex
	var rep checkReport
	interpOK := map[pairKey]bool{}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range work {
				ver := p.versions[v]
				keys := byVer[v]
				bad, interp, eNs, eBytes := checkVersion(ver, keys, prs, &termMu, terminates)
				mu.Lock()
				rep.pairs += len(keys)
				rep.emitNs += eNs
				rep.emitBytes += eBytes
				for k, why := range bad {
					prs.bad[k] = why
				}
				for _, k := range interp {
					interpOK[k] = true
					rep.interpPairs++
				}
				mu.Unlock()
			}
		}()
	}
	for _, v := range vers {
		work <- v
	}
	close(work)
	wg.Wait()

	for _, r := range recs {
		if len(r.results) == 0 {
			continue
		}
		rep.byteOps++
		for _, c := range r.crits {
			if interpOK[pairKey{r.ver, critKey(c)}] {
				rep.interpOps++
				break
			}
		}
	}
	return rep
}

// checkVersion checks one version's pairs and returns the failures, the
// pairs that passed an interpreter check, and the emit time and bytes of
// the reference slices.
func checkVersion(ver *version, keys []pairKey, prs *pairs, termMu *sync.Mutex, terminates map[*base]bool) (bad map[pairKey]string, interp []pairKey, emitNs, emitBytes int64) {
	bad = map[pairKey]string{}
	failAll := func(why string) (map[pairKey]string, []pairKey, int64, int64) {
		for _, k := range keys {
			bad[k] = why
		}
		return bad, nil, 0, 0
	}
	src := ver.source()
	prog, err := specslice.Parse(src)
	if err != nil {
		return failAll(fmt.Sprintf("check: program does not parse: %v", err))
	}
	canon, err := specslice.Parse(prog.Source())
	if err != nil {
		return failAll(fmt.Sprintf("check: normalized program does not parse: %v", err))
	}
	direct, err := canon.EliminateIndirectCalls()
	if err != nil {
		return failAll(fmt.Sprintf("check: %v", err))
	}
	eng, err := direct.Engine()
	if err != nil {
		return failAll(fmt.Sprintf("check: program does not analyze: %v", err))
	}
	g := eng.SDG()

	// The original's behaviour, for printf criteria.
	var origOut []string
	runs := false
	termMu.Lock()
	known, seen := terminates[ver.base]
	termMu.Unlock()
	if ver.base == nil || !seen || known {
		if res, err := canon.Run(specslice.RunOptions{MaxSteps: interpSteps}); err == nil {
			origOut, runs = res.Output, true
		}
		if ver.base != nil {
			termMu.Lock()
			terminates[ver.base] = runs
			termMu.Unlock()
		}
	}

	for _, k := range keys {
		c := prs.crits[k]
		want, emit, err := referenceSlice(eng, g, c)
		emitNs += int64(emit)
		emitBytes += int64(len(want))
		if err != nil {
			bad[k] = "check: reference slice failed: " + err.Error()
			continue
		}
		prs.mu.Lock()
		got := prs.first[k]
		prs.mu.Unlock()
		if got != want {
			bad[k] = fmt.Sprintf("output: response for %s differs from the from-scratch slice (%d vs %d bytes)", critKey(c), len(got), len(want))
			continue
		}
		if c.Kind != "printf" || !runs {
			continue
		}
		sp, err := specslice.Parse(got)
		if err != nil {
			bad[k] = "output: slice does not parse: " + err.Error()
			continue
		}
		res, err := sp.Run(specslice.RunOptions{MaxSteps: 10 * interpSteps})
		if err != nil {
			bad[k] = "output: slice does not run: " + err.Error()
			continue
		}
		if !slices.Equal(res.Output, origOut) {
			bad[k] = fmt.Sprintf("output: slice printed %d lines, original %d, or they differ", len(res.Output), len(origOut))
			continue
		}
		interp = append(interp, k)
	}
	return bad, interp, emitNs, emitBytes
}

// referenceSlice computes one criterion the way the service does, on a
// from-scratch engine, and times its emit step.
func referenceSlice(eng *specslice.Engine, g *specslice.SDG, c server.CriterionRequest) (string, time.Duration, error) {
	var crit specslice.Criterion
	switch c.Kind {
	case "printf":
		crit = g.PrintfCriterion(c.Proc)
	case "line":
		crit = g.LineCriterion(c.Line)
	default:
		crit = g.StmtCriterion(c.Proc, c.Stmt)
	}
	mode := specslice.BatchPoly
	if c.Mode == "mono" {
		mode = specslice.BatchMono
	}
	res, _ := eng.SliceAll([]specslice.BatchRequest{{Criterion: crit, Mode: mode}}, specslice.BatchOptions{Workers: 1})
	if res[0].Err != nil {
		return "", 0, res[0].Err
	}
	defer res[0].Slice.Release()
	t := time.Now()
	src, err := res[0].Slice.Source()
	return src, time.Since(t), err
}
