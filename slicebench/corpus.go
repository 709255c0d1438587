package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"specslice/internal/lang"
	"specslice/internal/loadgen"
	"specslice/internal/server"
	"specslice/internal/workload"
)

// Procedure-count anchors from the paper's Fig. 17 (tcas, gzip, space).
const (
	tcasProcs  = 9
	gzipProcs  = 97
	spaceProcs = 136
)

// configFor interpolates a generator configuration for a program of the
// given procedure count between the Fig. 17 anchors tcas, gzip, and space
// (log-linear in the procedure count), so sizes vary continuously instead
// of in Fig. 17's steps.
func configFor(procs int, recursive bool, seed int64) workload.BenchConfig {
	type anchor struct{ procs, vertices, sites float64 }
	anchors := []anchor{{tcasProcs, 466, 38}, {gzipProcs, 6605, 556}, {spaceProcs, 4706, 1016}}
	a, b := anchors[0], anchors[1]
	if procs > gzipProcs {
		a, b = anchors[1], anchors[2]
	}
	t := (math.Log(float64(procs)) - math.Log(a.procs)) / (math.Log(b.procs) - math.Log(a.procs))
	perProc := func(x, y float64) float64 { return x/a.procs + t*(y/b.procs-x/a.procs) }
	n := float64(procs)
	return workload.BenchConfig{
		Name:           fmt.Sprintf("gen%d", procs),
		Procs:          procs,
		TargetVertices: int(n * perProc(a.vertices, b.vertices)),
		CallSites:      int(n * perProc(a.sites, b.sites)),
		Slices:         6,
		Recursive:      recursive,
		Seed:           seed,
	}
}

// logSize maps a fraction in [0, 1) onto a procedure count log-uniformly
// between lo and hi.
func logSize(lo, hi int, frac float64) int {
	return int(math.Round(math.Exp(math.Log(float64(lo)) + frac*(math.Log(float64(hi))-math.Log(float64(lo))))))
}

// procName matches the generator's procedure names p0..pN.
var procName = regexp.MustCompile(`\bp(\d+)\b`)

// base is one generated program in normalized form, kept as a template
// whose procedure names take a per-copy salt. The generator names
// procedures p0..pN, so two generated programs of the same size share a
// FamilyKey (the sorted procedure names) and the server would advance one
// from the other instead of building it; salting gives every copy a
// family of its own without changing its shape, line numbers, or
// behaviour.
type base struct {
	// The text is parts[0] p<names[0]> parts[1] p<names[1]> ... : names
	// holds the procedure numbers, parts the literal text between them.
	parts []string
	names []string
	// pool is the criterion pool (printf criteria first, then line
	// criteria), valid for every salted copy.
	pool []server.CriterionRequest
	sum  string // content hash of the unsalted text
}

func newBase(cfg workload.BenchConfig) (*base, error) {
	prog, err := lang.Parse(workload.GenerateSource(cfg))
	if err != nil {
		return nil, fmt.Errorf("generated %d-procedure program does not parse: %v", cfg.Procs, err)
	}
	// Line criteria count lines of the normalized text the service sees.
	text := lang.Print(prog)
	if prog, err = lang.Parse(text); err != nil {
		return nil, fmt.Errorf("normalized %d-procedure program does not parse: %v", cfg.Procs, err)
	}
	pool, err := criterionPool(prog)
	if err != nil {
		return nil, err
	}
	b := &base{pool: pool}
	last := 0
	for _, m := range procName.FindAllStringSubmatchIndex(text, -1) {
		b.parts = append(b.parts, text[last:m[0]])
		b.names = append(b.names, text[m[2]:m[3]])
		last = m[1]
	}
	b.parts = append(b.parts, text[last:])
	sum := sha256.Sum256([]byte(text))
	b.sum = hex.EncodeToString(sum[:8])
	return b, nil
}

// render returns the program with every procedure pN renamed p<salt>_N.
// The rename keeps the procedures' relative name order.
func (b *base) render(salt string) string {
	var sb strings.Builder
	sb.Grow(len(b.parts[0]) * 2)
	for i, n := range b.names {
		sb.WriteString(b.parts[i])
		sb.WriteString("p")
		sb.WriteString(salt)
		sb.WriteByte('_')
		sb.WriteString(n)
	}
	sb.WriteString(b.parts[len(b.parts)-1])
	return sb.String()
}

// version is one program text the benchmark sends: either a salted copy
// of a base (rendered on demand, so a corpus of thousands of first-touch
// programs costs no memory until sent) or an edited text.
type version struct {
	base *base
	salt string
	text string
	// pool holds the criteria valid on this text.
	pool []server.CriterionRequest
	// ancestor is the version an edit was applied to (edit_advance).
	ancestor *version
}

func (v *version) source() string {
	if v.text != "" {
		return v.text
	}
	return v.base.render(v.salt)
}

func (v *version) identity() string {
	if v.text != "" {
		sum := sha256.Sum256([]byte(v.text))
		return hex.EncodeToString(sum[:8])
	}
	return v.base.sum + "/" + v.salt
}

// lines returns the pool's line criteria.
func (v *version) lines() []server.CriterionRequest {
	var out []server.CriterionRequest
	for _, c := range v.pool {
		if c.Kind == "line" {
			out = append(out, c)
		}
	}
	return out
}

// op is one request: a program version and its criteria (labels are
// assigned per send).
type op struct {
	ver   int
	crits []server.CriterionRequest
}

// plan is every input a run can send, derived from the seed alone.
type plan struct {
	workload string
	seed     int64
	versions []*version
	// sessions holds each closed-loop session's op sequence (warm_read,
	// edit_advance, cold_open). warm_read sessions wrap around at the
	// end; the others stop, which capacity makes unlikely.
	sessions [][]op
	wrap     bool
	// cacheJSON marks plans that send versions repeatedly, so the client
	// keeps their JSON-escaped text.
	cacheJSON bool
	// rounds holds disk_restart's restart rounds: each touches every
	// corpus program once, in a seeded order.
	rounds [][]op
	// preload lists versions set-up sends before the window.
	preload []op
	// warmup lists ops set-up sends after preloading, on versions the
	// window never touches (cold_open's first-touch warm-up).
	warmup []op
	hash   string
}

// salts hands out salts unique within a run.
type salts struct {
	tag string
	n   int
}

func (s *salts) next() string {
	s.n++
	return fmt.Sprintf("%s%x", s.tag, s.n)
}

func newSalts(rng *rand.Rand) *salts { return &salts{tag: fmt.Sprintf("%04x", rng.Intn(1<<16))} }

// criterionPool derives a program's criteria the way internal/loadgen
// does: printf in main, every printf, then up to 16 evenly spaced
// assignment lines in procedures reachable from main through direct calls
// (a line in an unreachable procedure is a criterion error, not a slice).
func criterionPool(prog *lang.Program) ([]server.CriterionRequest, error) {
	callees := map[string][]string{}
	for _, f := range prog.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if cs, ok := s.(*lang.CallStmt); ok && !cs.Indirect {
				callees[f.Name] = append(callees[f.Name], cs.Callee)
			}
		})
	}
	reach := map[string]bool{"main": true}
	work := []string{"main"}
	for len(work) > 0 {
		p := work[0]
		work = work[1:]
		for _, c := range callees[p] {
			if !reach[c] {
				reach[c] = true
				work = append(work, c)
			}
		}
	}
	var lines []int
	for _, f := range prog.Funcs {
		if !reach[f.Name] {
			continue
		}
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if _, ok := s.(*lang.AssignStmt); ok {
				lines = append(lines, s.Base().Pos.Line)
			}
		})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("no assignment lines reachable from main")
	}
	sort.Ints(lines)
	pool := []server.CriterionRequest{{Kind: "printf", Proc: "main"}, {Kind: "printf"}}
	const maxLines = 16
	step := max(1, len(lines)/maxLines)
	prev := -1
	for i := 0; i < len(lines) && len(pool) < 2+maxLines; i += step {
		if lines[i] != prev {
			pool = append(pool, server.CriterionRequest{Kind: "line", Line: lines[i]})
			prev = lines[i]
		}
	}
	return pool, nil
}

// corpusSeed seeds the generated programs (see buildPlan).
const corpusSeed = 2014

// warmRankStratum maps popularity rank to size stratum for warm_read: a
// fixed interleaving (bit reversal, offset to start mid-range), which puts
// a mid-size program at the hot head and spreads the others evenly. Each
// size is jittered inside its stratum, so sizes vary continuously.
var warmRankStratum = [16]int{8, 0, 12, 4, 10, 2, 14, 6, 9, 1, 13, 5, 11, 3, 15, 7}

// Op capacities per session per measured second, between about twice
// (edits) and six times (warm reads) what sessions consume on a 2-core
// host (warm_read sessions wrap around instead of stopping), so a
// faster program does not run out of inputs before the window ends.
const (
	warmOpsPerSec = 400
	editOpsPerSec = 10
	coldOpsPerSec = 40
	diskRoundsSec = 4
)

// buildPlan generates a workload's inputs from the seed.
func buildPlan(name string, seed int64, seconds float64, sessions int) (*plan, error) {
	// The programs themselves come from a fixed corpus seed, as the
	// paper's Fig. 17 suite is a fixed set of programs: the cost of a
	// generated program varies by tens of percent with its generator seed,
	// which would swamp run-to-run comparisons. The run seed draws
	// everything else — popularity and criterion streams, edit streams,
	// first-touch order, restart order, and the procedure-name salts.
	crng := rand.New(rand.NewSource(corpusSeed))
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: name, seed: seed}
	sl := newSalts(rng)
	addBase := func(b *base) int {
		p.versions = append(p.versions, &version{base: b, salt: sl.next(), pool: b.pool})
		return len(p.versions) - 1
	}
	// genBase draws a program from the stratum-th of strata equal slices
	// of the log size range [lo, hi].
	genBase := func(lo, hi int, stratum float64, strata int) (*base, error) {
		procs := logSize(lo, hi, (stratum+crng.Float64())/float64(strata))
		return newBase(configFor(procs, crng.Float64() < 0.3, crng.Int63()))
	}
	switch name {
	case "warm_read":
		const families = 16
		p.wrap, p.cacheJSON = true, true
		var zipfs []*loadgen.Zipf
		for r := 0; r < families; r++ {
			b, err := genBase(tcasProcs, gzipProcs, float64(warmRankStratum[r]), families)
			if err != nil {
				return nil, err
			}
			v := addBase(b)
			p.preload = append(p.preload, op{ver: v, crits: []server.CriterionRequest{b.pool[0], withMode(b.pool[0], "mono")}})
			zipfs = append(zipfs, loadgen.NewZipf(len(b.pool), 0.8, rng.Int63()))
		}
		for s := 0; s < sessions; s++ {
			srng := rand.New(rand.NewSource(rng.Int63()))
			fam := loadgen.NewZipf(families, 0.99, rng.Int63())
			n := int(seconds * warmOpsPerSec)
			ops := make([]op, 0, n)
			for i := 0; i < n; i++ {
				f := fam.Next()
				o := op{ver: f}
				nCrit := 1
				if srng.Float64() < 0.3 {
					nCrit = 2
				}
				for c := 0; c < nCrit; c++ {
					crit := p.versions[f].pool[zipfs[f].Next()]
					if srng.Float64() < 0.15 {
						crit = withMode(crit, "mono")
					}
					o.crits = append(o.crits, crit)
				}
				ops = append(ops, o)
			}
			p.sessions = append(p.sessions, ops)
		}
	case "edit_advance":
		for s := 0; s < sessions; s++ {
			cfg := configFor(gzipProcs, true, crng.Int63())
			b, err := newBase(cfg)
			if err != nil {
				return nil, err
			}
			v := addBase(b)
			p.preload = append(p.preload, op{ver: v, crits: editCrits})
			prog, err := lang.Parse(p.versions[v].source())
			if err != nil {
				return nil, fmt.Errorf("salted program does not parse: %v", err)
			}
			seen := map[string]bool{p.versions[v].source(): true}
			var ed *workload.Editor
			var prev *version
			n := int(math.Ceil(seconds * editOpsPerSec))
			var ops []op
			for i := 0; i < n; i++ {
				// The session edits in bursts of editBurst steps, each
				// burst starting over from the base program: a run then
				// averages over many edit walks instead of following two
				// long ones whose drift would set the whole run's cost.
				if i%editBurst == 0 {
					ed = workload.NewEditor(prog, rng.Int63())
					prev = p.versions[v]
				}
				// Every op sends a version the server has not seen: steps
				// that reproduce an earlier text (no-ops, undo pairs) are
				// stepped past.
				var text string
				for try := 0; try < 16; try++ {
					ed.Step()
					if text = ed.Source(); !seen[text] {
						break
					}
				}
				if seen[text] {
					return nil, fmt.Errorf("edit stream stalled after %d versions", i)
				}
				seen[text] = true
				prev = &version{text: text, ancestor: prev}
				p.versions = append(p.versions, prev)
				ops = append(ops, op{ver: len(p.versions) - 1, crits: editCrits})
			}
			p.sessions = append(p.sessions, ops)
		}
	case "cold_open":
		const bases = 128
		var bs []*base
		for i := 0; i < bases; i++ {
			b, err := genBase(tcasProcs, spaceProcs, float64(i), bases)
			if err != nil {
				return nil, err
			}
			bs = append(bs, b)
		}
		firstTouch := func(r *rand.Rand, b *base) op {
			v := addBase(b)
			lines := p.versions[v].lines()
			return op{ver: v, crits: []server.CriterionRequest{p.versions[v].pool[0], lines[r.Intn(len(lines))]}}
		}
		for i := 0; i < 4; i++ {
			p.warmup = append(p.warmup, firstTouch(rng, bs[rng.Intn(bases)]))
		}
		// Each session walks the bases in its own shuffled order, so
		// every run spans the whole size range evenly.
		for s := 0; s < sessions; s++ {
			srng := rand.New(rand.NewSource(rng.Int63()))
			order := srng.Perm(bases)
			n := int(seconds * coldOpsPerSec)
			var ops []op
			for i := 0; i < n; i++ {
				ops = append(ops, firstTouch(srng, bs[order[i%bases]]))
			}
			p.sessions = append(p.sessions, ops)
		}
	case "disk_restart":
		const corpus = 24
		var corpusOps []op
		for i := 0; i < corpus; i++ {
			b, err := genBase(tcasProcs, gzipProcs, float64(i), corpus)
			if err != nil {
				return nil, err
			}
			v := addBase(b)
			lines := p.versions[v].lines()
			corpusOps = append(corpusOps, op{ver: v, crits: []server.CriterionRequest{b.pool[0], lines[rng.Intn(len(lines))]}})
		}
		p.preload, p.cacheJSON = corpusOps, true
		for r := 0; r < int(math.Ceil(seconds*diskRoundsSec)); r++ {
			round := make([]op, corpus)
			for i, j := range rng.Perm(corpus) {
				round[i] = corpusOps[j]
			}
			p.rounds = append(p.rounds, round)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	p.hash = p.digest()
	return p, nil
}

// editBurst is how many consecutive edits edit_advance applies before
// starting a fresh edit walk from the session's base program.
const editBurst = 8

// editCrits are edit_advance's two criteria: the session re-slices main's
// printf output, polyvariant and monovariant, after every edit. Both cover
// most of the program, so an op's cost follows the build path and the
// program's size rather than which line a draw happened to pick.
var editCrits = []server.CriterionRequest{{Kind: "printf", Proc: "main"}, {Kind: "printf", Proc: "main", Mode: "mono"}}

func withMode(c server.CriterionRequest, mode string) server.CriterionRequest {
	c.Mode = mode
	return c
}

// digest hashes everything the plan sends, in order.
func (p *plan) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", p.workload, p.seed)
	for _, v := range p.versions {
		fmt.Fprintf(h, "v%s\x00", v.identity())
	}
	hashOps := func(tag string, ops []op) {
		fmt.Fprintf(h, "%s\x00", tag)
		for _, o := range ops {
			writeOp(h, o)
		}
	}
	hashOps("preload", p.preload)
	hashOps("warmup", p.warmup)
	for _, s := range p.sessions {
		hashOps("session", s)
	}
	for _, r := range p.rounds {
		hashOps("round", r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeOp(h hash.Hash, o op) {
	crits, _ := json.Marshal(o.crits)
	fmt.Fprintf(h, "%d:%s\x00", o.ver, crits)
}
