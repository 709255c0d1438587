package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadAvg returns the 1-minute load average.
func loadAvg() float64 {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return -1
	}
	return float64(si.Loads[0]) / 65536
}

// runtimeSample is a snapshot of the Go runtime metrics a window reports.
type runtimeSample struct {
	gcCycles uint64
	gcPauses *metrics.Float64Histogram
	schedLat *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles: s[0].Value.Uint64(),
		gcPauses: s[1].Value.Float64Histogram(),
		schedLat: s[2].Value.Float64Histogram(),
	}
}

// histDeltaQuantile returns the q-quantile (in seconds) of the samples a
// cumulative runtime histogram gained between before and after: the upper
// bound of the bucket holding the rank, or its lower bound for the open
// last bucket.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-2]
}

// residentSampler samples the Go runtime's resident memory estimate
// (mapped minus released-to-the-OS bytes) every 20 ms and keeps each
// second's peak. It reads runtime/metrics rather than /proc, so the
// benchmark touches no file outside its checkout.
type residentSampler struct {
	stop  chan struct{}
	peaks chan []float64
}

func residentBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func startResidentSampler() *residentSampler {
	rs := &residentSampler{stop: make(chan struct{}), peaks: make(chan []float64, 1)}
	go func() {
		var peaks []float64
		cur := residentBytes()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		start, sec := time.Now(), 0
		for {
			select {
			case <-rs.stop:
				rs.peaks <- append(peaks, float64(max(cur, residentBytes())))
				return
			case now := <-tick.C:
				if s := int(now.Sub(start) / time.Second); s != sec {
					peaks = append(peaks, float64(cur))
					cur, sec = 0, s
				}
				cur = max(cur, residentBytes())
			}
		}
	}()
	return rs
}

// Stop ends sampling and returns the median over the window's seconds of
// each second's peak, in bytes: a peak that one coincidence of two large
// builds cannot swing.
func (rs *residentSampler) Stop() float64 {
	close(rs.stop)
	return quantile(<-rs.peaks, 0.5)
}

// provenance identifies what was measured and on what.
type provenance struct {
	Source     string  `json:"source"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadBefore float64 `json:"loadavg_before"`
	LoadAfter  float64 `json:"loadavg_after"`
	GCCycles   uint64  `json:"gc_cycles"`
	Seed       int64   `json:"seed"`
	PlanHash   string  `json:"plan_hash"`
}

// sourceIdentity names the code under test: the git commit when root is a
// git checkout (read from .git without running git), otherwise a SHA-256
// over the Go sources and module files below root, so an exported tree
// without history still gets a stable identity.
func sourceIdentity(root string) string {
	if c := gitHead(root); c != "" {
		return "git:" + c
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if c, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(c))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 && fields[1] == ref {
			return fields[0]
		}
	}
	return ""
}

func newProvenance(root string, seed int64) provenance {
	return provenance{
		Source:     sourceIdentity(root),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadBefore: loadAvg(),
		Seed:       seed,
	}
}
