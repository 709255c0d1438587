// Command slicebench is the repository's serving benchmark. It drives the
// slicing service the way IDE users do — closed loops of two sessions, each
// sending its next request only after its previous slice arrived — over
// real loopback HTTP, against in-process internal/server workers (behind an
// internal/cluster router where a workload says so). Run it from the
// repository root:
//
//	bash slicebench/run.sh --workload warm_read --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics. Lines before it give the tier mix, the output
// checks, provenance, and (traced) the latency decomposition; the line
// starting {"record": is the run's full record, which the compare command
// (./compare) reads from saved output.
//
// # Workloads
//
// Each workload pins one build tier of the serving path; a run fails unless
// every measured op — per its response flags and per the /v1/stats deltas —
// was served by that tier.
//
//   - warm_read (routed, 2 workers): 16 program families with sizes spread
//     log-uniformly from tcas to gzip scale and Zipf(0.99) popularity, all
//     preloaded and warmed; each op slices 1–2 criteria drawn as
//     internal/loadgen draws them, 15% monovariant. Every op is a cache hit:
//     the slicing hot path and the per-hop parse/JSON, build layers idle.
//   - edit_advance (direct, write-behind store): each session owns one
//     gzip-scale family and sends one workload.Editor step per op, slicing
//     printf in main polyvariantly and monovariantly. Ops are advances, or
//     cold builds when an edit changes the procedure set; the split is
//     reported.
//   - cold_open (routed): each op first-touches a program never seen before
//     (printf:main plus one line criterion); sizes log-uniform from tcas to
//     space scale, each session walking 128 generated programs in its own
//     shuffled order. Every op is a cold build.
//   - disk_restart (direct): set-up cold-builds 24 programs (tcas to gzip
//     scale) into an on-disk store and closes it; the window repeatedly
//     opens a fresh server on the store and first-touches every program
//     once. Every op is a disk hit.
//
// The generated programs are fixed (a constant corpus seed), like the
// paper's Fig. 17 suite; --seed draws the traffic: popularity and criterion
// streams, edit streams, first-touch and restart orders. Generated programs
// name procedures p0..pN, so programs of one shape would share a FamilyKey
// and be advanced from each other; every program the benchmark sends has
// its procedure names salted to make it a family of its own.
//
// # Metrics
//
// End-to-end (--trace 0): ops_per_s (checked ops over the window),
// latency_p50_ms and latency_p90_ms (send to decoded response; p90 is the
// highest percentile every workload's window supports with ten samples
// beyond it), cpu_ms_per_op (process user+sys CPU, client included),
// peak_rss_mb (the Go runtime's resident estimate, mapped minus released
// memory, sampled every 20 ms: the median over the window's seconds of
// each second's peak), and setup_s (median
// of three complete set-ups: input generation, server start, preload and
// warm-up, store population). A failure is a transport error, a non-200
// response, a criterion error, a failed output check, or an op served by
// the wrong tier.
//
// Per-layer (--trace 1): the window is split into an untraced half and a
// traced half. In the traced half, benchmark-owned wrappers time the
// router's and workers' handlers; spans link to the client's by the
// criterion label ("op<N>") the router forwards verbatim. Response phases,
// /v1/stats deltas, and replays of a sample of the traced programs through
// the layers' entry points (lang.Parse, sdg.BuildWorkers, summary edges,
// Encoding, Reachable, Advance, Snapshot, store.Get, FromSnapshot) fill in
// the layers the spans cannot see. The mean client latency is printed as
// self times plus explicit residuals that sum to it; the tracing overhead
// is the traced half's p50 minus the untraced half's.
//
// Per-layer metrics are means per op unless named otherwise, and the
// end-to-end metric each is expected to move:
//
//   - cluster.self_ms (router span minus worker span: decode, full parse for
//     the routing keys, singleflight gate, buffering): cpu_ms_per_op and
//     latency_p50_ms on warm_read; cluster.shard_skew (max/mean forwards per
//     shard): latency_p90_ms on warm_read; dedup_waits, retries and shed are
//     counts, retries and shed wasted work that should stay 0.
//   - server.handler_ms, server.hit_overhead_ms (handler minus batch wall on
//     hits: decode, parse, hash, resolve, emit, JSON): latency_p50_ms on
//     warm_read; hit/advance/dedup ratios and evictions from /v1/stats.
//   - lang.parse_ms (replayed parse+print rate times each request's size,
//     paid on every hop): latency_p50_ms on warm_read and cold_open.
//   - sdg.build_ms, sdg.pdg_ms, sdg.connect_ms, dataflow.modref_ms (the
//     build block per cold build, replayed where no cold build ran):
//     cold_open p50 and p90; sdg.advance_ms (replayed Advance):
//     edit_advance p50; sdg.vertices and sdg.edges: IR size per program.
//   - slice.summary_ms (replayed summary fixpoint, full for cold builds and
//     partial for advances), core.encode_ms and pds.poststar_ms (replayed
//     Encoding and Reachable): cold_open, edit_advance, disk_restart.
//   - core.readout_ms, pds.prestar_ms, fsa.determinize_ms, fsa.minimize_ms
//     (response phases) and core.variants_per_slice: warm_read p50;
//     mono.slice_ms (per monovariant criterion): warm_read p90.
//   - emit.source_ms (Slice.Source timed on the from-scratch reference
//     slices, per slice) and emit.kb_per_slice: warm_read.
//   - engine.sliceall_ms (batch wall), engine.footprint_mb (cache bytes per
//     entry): peak_rss_mb.
//   - store.snapshot_encode_ms (replayed Snapshot, write-behind work
//     competing for the cores): cpu_ms_per_op and ops_per_s on
//     edit_advance; store.get_ms and store.snapshot_decode_ms (replayed
//     store.Get and FromSnapshot), store.open_ms (server start with store
//     recovery): disk_restart p50; disk_hit_ratio, bytes_on_disk,
//     disk_loads_failed (should be 0), persist_drop_ratio from /v1/stats.
//   - runtime.gc_cycles_per_op, runtime.gc_pause_ms (p99 stop-the-world GC
//     pause) and runtime.sched_latency_p99_ms: explain latency_p90_ms drift
//     on a 2-core host.
//
// # Output checks
//
// After the window, every distinct (program, criterion) response is compared
// byte for byte with a from-scratch library slice of the same input, and
// every repeat of a pair with its first response. printf slices of programs
// the interpreter finishes within a step budget are also executed and must
// print what the original prints; the run reports how many ops each check
// covered.
//
// # Provenance
//
// Each run records the code identity (git commit, or a hash of the Go
// sources when the tree is not a git checkout), Go version, CPU count,
// GOMAXPROCS, load average before and after, GC cycles, the seed, and a hash
// of the generated input plan; the same seed gives the same plan hash.
//
// The benchmark needs only the Go toolchain, binds only loopback ports, and
// writes only under .bench_build/ in the directory it runs from, removing
// its temporary files on exit.
package main
