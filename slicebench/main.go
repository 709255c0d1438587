package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// tailQ is the reported tail percentile: the highest every workload's
// window supports with at least ten samples beyond it.
const tailQ = 0.90

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("slicebench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: warm_read, edit_advance, cold_open, or disk_restart")
	seed := fl.Int64("seed", 1, "seed of the generated inputs")
	seconds := fl.Float64("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced window instead of end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "slicebench: workload %s: %s\n", *name, fmt.Sprintf(format, a...))
		return 1
	}
	sp, ok := specs[*name]
	if !ok {
		return fail("unknown workload (want warm_read, edit_advance, cold_open, or disk_restart)")
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail("need --seconds > 0 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return fail("%v", err)
	}
	tmp, err := tmpRoot(root)
	if err != nil {
		return fail("temp dir: %v", err)
	}
	defer os.RemoveAll(tmp)
	prov := newProvenance(root, *seed)

	// Set-up, several times: setup_s is the median.
	var setups []float64
	var in *instance
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		x, err := setUp(sp, *seed, *seconds, tmp)
		if err != nil {
			return fail("set-up: %v", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			x.tearDown()
		} else {
			in = x
		}
	}
	defer in.tearDown()
	prov.PlanHash = in.plan.hash
	runtime.GC()

	window := time.Duration(*seconds * float64(time.Second))
	var windows []*windowResult
	if *trace == 0 {
		w, err := in.measure(window, false)
		if err != nil {
			return fail("window: %v", err)
		}
		windows = append(windows, w)
	} else {
		// Half the window untraced, half traced: the difference is the
		// tracing overhead.
		for _, traced := range []bool{false, true} {
			w, err := in.measure(window/2, traced)
			if err != nil {
				return fail("window: %v", err)
			}
			windows = append(windows, w)
		}
	}
	in.tearDown()

	// Tier guards, then output checks outside the timed window.
	var reasons []string
	var all []record
	for _, w := range windows {
		if r := guardTiers(sp, w.records, w.delta); r != "" {
			reasons = append(reasons, r)
		}
		all = append(all, w.records...)
	}
	chk := verify(in.plan, in.pairs, all)
	for _, w := range windows {
		markCheckFailures(w.records, in.pairs)
	}
	var attempted, failed int
	failures := map[string]int{}
	for _, w := range windows {
		for _, r := range w.records {
			attempted++
			if r.fail != "" {
				failed++
				kind := strings.SplitN(r.fail, ":", 2)[0]
				if failures[kind] == 0 {
					fmt.Printf("slicebench: first %s failure: op %d: %s\n", kind, r.id, r.fail)
				}
				failures[kind]++
			}
		}
	}
	if attempted == 0 {
		return fail("no op completed in the window")
	}
	correct := failed == 0 && len(reasons) == 0

	var metrics map[string]metric
	var lines []string
	if *trace == 0 {
		metrics, lines = endToEnd(windows[0], quantile(setups, 0.5))
	} else {
		metrics, lines, err = traceReport(in, windows[0], windows[1], chk, tmp)
		if err != nil {
			return fail("trace: %v", err)
		}
	}
	prov.LoadAfter = loadAvg()
	prov.GCCycles = readRuntime().gcCycles

	fmt.Printf("slicebench: workload %s seed %d: %d ops attempted, %d failed %v; setups %s s\n",
		sp.name, *seed, attempted, failed, failures, fmtList(setups))
	for _, r := range reasons {
		fmt.Printf("slicebench: FAILED %s\n", r)
	}
	for _, w := range windows {
		fmt.Printf("slicebench: tiers %s\n", tierSummary(w))
	}
	fmt.Printf("slicebench: checks: %d responses byte-compared with from-scratch slices (%d ops); %d also executed against the original (%d ops)\n",
		chk.pairs, chk.byteOps, chk.interpPairs, chk.interpOps)
	for _, l := range lines {
		fmt.Println(l)
	}
	rec := map[string]any{
		"workload": sp.name, "seed": *seed, "trace": *trace, "seconds": *seconds,
		"provenance": prov, "attempted": attempted, "failed": failed, "correct": correct, "metrics": metrics,
	}
	// The record line is what ./compare reads back from saved output.
	recJSON, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Println(string(recJSON))
	// A run that measured but found wrong outputs still exits 0: the
	// result line reports correct=false with the failed ops counted.
	res, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	fmt.Println(string(res))
	return 0
}

// markCheckFailures fails every op one of whose responses failed an
// output check.
func markCheckFailures(recs []record, prs *pairs) {
	for i := range recs {
		r := &recs[i]
		if r.fail != "" || len(r.results) == 0 {
			continue
		}
		for _, c := range r.crits {
			if why, bad := prs.bad[pairKey{r.ver, critKey(c)}]; bad {
				r.fail = why
				break
			}
		}
	}
}

// endToEnd computes the user-visible metrics of an untraced window.
func endToEnd(w *windowResult, setup float64) (map[string]metric, []string) {
	lat := latencies(w.records)
	okOps := 0
	for _, r := range w.records {
		if r.fail == "" {
			okOps++
		}
	}
	n := len(lat)
	beyond := n - int(math.Ceil(tailQ*float64(n)))
	tailName := fmt.Sprintf("latency_p%d_ms", int(math.Round(tailQ*100)))
	m := map[string]metric{
		"ops_per_s":      {float64(okOps) / w.elapsed.Seconds(), "1/s"},
		"latency_p50_ms": {quantile(lat, 0.5), "ms"},
		tailName:         {quantile(lat, tailQ), "ms"},
		"cpu_ms_per_op":  {ms(w.cpu) / float64(n), "ms"},
		"peak_rss_mb":    {w.resident / (1 << 20), "MB"},
		"setup_s":        {setup, "s"},
	}
	support := "supported"
	if beyond < 10 {
		support = "NOT supported: fewer than 10 samples beyond"
	}
	lines := []string{
		fmt.Sprintf("slicebench: window %.2f s, %d ops (%d ok); %s over n=%d samples with %d beyond (%s); fail_ratio %.4f",
			w.elapsed.Seconds(), n, okOps, tailName, n, beyond, support, float64(n-okOps)/float64(n)),
	}
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		lines = append(lines, fmt.Sprintf("slicebench:   %-16s %12.4f %s", k, m[k].Value, m[k].Unit))
	}
	return m, lines
}

func tierSummary(w *windowResult) string {
	served := map[string]int{}
	for _, r := range w.records {
		if len(r.results) > 0 {
			served[tierOf(r)]++
		}
	}
	c := w.delta.cache
	return fmt.Sprintf("per response %v; /v1/stats deltas hits=%d misses=%d advances=%d cold_builds=%d disk_hits=%d deduped=%d evictions=%d",
		served, c.Hits, c.Misses, c.Advances, c.ColdBuilds, c.DiskHits, c.Deduped, c.Evictions)
}

func fmtList(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%.3f", x))
	}
	return strings.Join(parts, " ")
}
