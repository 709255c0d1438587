// Command compare reads two sets of slicebench results and prints, for
// every (workload, end-to-end metric) pair, each side's median and
// quartiles and whether the second set's median is within the metric's
// bound of the first's.
//
//	go run ./compare -bench ../BENCHMARK.json old.jsonl new.jsonl
//
// A result set is a file or a directory of files holding saved slicebench
// output; every {"record": {...}} line of an untraced run counts, other
// lines are ignored. Quartiles follow Python's
// statistics.quantiles(values, n=4) ("exclusive" method).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type record struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// values maps workload -> metric -> samples.
type values map[string]map[string][]float64

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end metrics and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] OLD NEW")
		os.Exit(2)
	}
	if err := run(*benchPath, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(benchPath, oldPath, newPath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	oldV, err := load(oldPath)
	if err != nil {
		return err
	}
	newV, err := load(newPath)
	if err != nil {
		return err
	}
	var workloads []string
	for w := range oldV {
		if newV[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has records in both sets")
	}
	fmt.Printf("%-13s %-15s %27s %27s %8s %6s  %s\n", "workload", "metric", "old median [q1, q3] n", "new median [q1, q3] n", "change", "bound", "verdict")
	worse := 0
	for _, w := range workloads {
		for _, m := range b.EndToEnd {
			o, n := oldV[w][m.Name], newV[w][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			oq, nq := quartiles(o), quartiles(n)
			change := (nq[1] - oq[1]) / oq[1]
			if m.Better == "higher" {
				change = -change
			}
			// change > 0 means worse, in the metric's own direction.
			verdict := "within bound"
			switch {
			case change > m.Bound:
				verdict = "WORSE beyond bound"
				worse++
			case (oq[2]-oq[0])/oq[1] > m.Bound:
				verdict = "unresolved: old spread exceeds bound"
			case change < -m.Bound:
				verdict = "better beyond bound"
			}
			fmt.Printf("%-13s %-15s %27s %27s %+7.1f%% %5.0f%%  %s\n", w, m.Name, fmtQ(oq, len(o)), fmtQ(nq, len(n)), 100*change, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse beyond their bound", worse)
	}
	return nil
}

func fmtQ(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", q[1], q[0], q[2], n)
}

// load reads every record line under path (a file or a directory).
func load(path string) (values, error) {
	v := values{}
	var files []string
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if err := loadFile(f, v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func loadFile(path string, v values) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var wrap struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &wrap); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		r := wrap.Record
		if r.Trace != 0 {
			continue // traced runs carry per-layer metrics only
		}
		if v[r.Workload] == nil {
			v[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			v[r.Workload][name] = append(v[r.Workload][name], m.Value)
		}
	}
	return sc.Err()
}

// quartiles returns q1, median, q3 as Python's statistics.quantiles(xs,
// n=4) computes them (method "exclusive"); a single value is its own
// quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}
