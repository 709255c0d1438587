package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"specslice/internal/cluster"
	"specslice/internal/server"
)

// span is one handler invocation seen by a tracing wrapper.
type span struct {
	layer      string // "router" or "worker"
	op         int64
	start, end time.Time
}

// spanLog collects spans in memory; they are read after the window.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// take returns and clears the collected spans.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// wrap times next's slice requests while tracing is on. The op is
// identified by the label of the body's last criterion ("op<N>" or
// "op<N>.1"): the router forwards the body verbatim, so router and
// worker spans of one op carry the same id.
func (l *spanLog) wrap(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/slice" || !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		t1 := time.Now()
		if id, ok := opIDFromBody(body); ok {
			l.mu.Lock()
			l.spans = append(l.spans, span{layer: layer, op: id, start: t0, end: t1})
			l.mu.Unlock()
		}
	})
}

var labelMarker = []byte(`"label":"op`)

func opIDFromBody(body []byte) (int64, bool) {
	i := bytes.LastIndex(body, labelMarker)
	if i < 0 {
		return 0, false
	}
	var id int64
	n := 0
	for _, c := range body[i+len(labelMarker):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
		n++
	}
	return id, n > 0
}

// worker is one in-process slicing server on a loopback listener.
type worker struct {
	srv *server.Server
	ln  net.Listener
	hs  *http.Server
	wg  sync.WaitGroup
}

func startWorker(cfg server.Config, spans *spanLog) (*worker, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	w := &worker{srv: srv, ln: ln, hs: &http.Server{Handler: spans.wrap("worker", srv.Handler())}}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.hs.Serve(ln)
	}()
	return w, nil
}

func (w *worker) url() string { return "http://" + w.ln.Addr().String() }

// close drains the HTTP server, then flushes and closes the server's
// store (a clean shutdown marker for disk_restart's next open).
func (w *worker) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	w.wg.Wait()
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// topology is what a workload drives: one worker, or a router in front of
// several.
type topology struct {
	workers []*worker
	router  *cluster.Router
	rln     net.Listener
	rhs     *http.Server
	rwg     sync.WaitGroup
	cancel  context.CancelFunc
	base    string
}

func startTopology(nWorkers int, routed bool, cfg server.Config, spans *spanLog) (*topology, error) {
	t := &topology{}
	for i := 0; i < nWorkers; i++ {
		w, err := startWorker(cfg, spans)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("start worker %d: %w", i, err)
		}
		t.workers = append(t.workers, w)
	}
	if !routed {
		t.base = t.workers[0].url()
		return t, nil
	}
	t.router = cluster.NewRouter(cluster.Config{Logf: func(string, ...any) {}})
	for i, w := range t.workers {
		t.router.AddWorker(fmt.Sprintf("w%d", i), w.url())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.rln = ln
	t.rhs = &http.Server{Handler: spans.wrap("router", t.router.Handler())}
	t.rwg.Add(1)
	go func() {
		defer t.rwg.Done()
		t.rhs.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.router.Start(ctx)
	t.base = "http://" + ln.Addr().String()
	return t, nil
}

// close stops the router first, so nothing forwards into a closing
// worker, then every worker.
func (t *topology) close() error {
	var first error
	if t.cancel != nil {
		t.cancel()
	}
	if t.rhs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		first = t.rhs.Shutdown(ctx)
		cancel()
		t.rwg.Wait()
	}
	for _, w := range t.workers {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fetchStats reads GET /v1/stats; a worker's body decodes into the
// router's shape with empty router and shard blocks.
func fetchStats(client *http.Client, base string) (*cluster.StatsResponse, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st cluster.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}
