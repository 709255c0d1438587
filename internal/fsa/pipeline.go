package fsa

// Dense automaton pipeline: per-automaton symbol-indexed adjacency (CSR),
// bitset subset construction with an FNV interning table in place of sorted
// string keys, Valmari–Lehtinen partition refinement on the partial
// transition function, and the fused
// reverse→determinize→minimize→reverse chain (MRD) that core.Specialize
// runs per slice request (Alg. 1 lines 4–8). All scratch is drawn from a
// pooled arena, so warm requests run the whole chain with near-zero
// per-request allocation — the same discipline pds.PrestarEngine applies to
// the Prestar half of the pipeline.

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// pipeArena holds the reusable scratch of one pipeline run: bump-allocated
// int32/uint64 backing for CSR arrays and bitsets, the subset interner, and
// the growable worklists. Arenas are borrowed from pipePool per run; the
// bump offsets reset on borrow while capacities persist, so a warm pipeline
// re-uses the previous run's memory.
type pipeArena struct {
	i32buf []int32
	i32off int
	u64buf []uint64
	u64off int
	words  int // int32-sized words requested since the borrow

	symbuf []Symbol // materialized sorted alphabet (valid until next buildAdjacency)
	work   []int32  // determinize worklist of subset ids
	cwork  []int32  // closure / trim DFS stack
	btouch []int32  // minimize: blocks with a marked state
	ctouch []int32  // minimize: cords with a marked transition

	touched []int    // determinize: dense symbol indexes hit by a subset
	symSets []bitset // determinize: per-symbol move accumulation sets
	symMark []uint64 // determinize: round stamp per symbol
	round   uint64   // monotone per arena; never reused across runs
	in      interner
}

var pipePool = sync.Pool{New: func() any { return &pipeArena{} }}

func getArena() *pipeArena {
	ar := pipePool.Get().(*pipeArena)
	ar.i32off, ar.u64off, ar.words = 0, 0, 0
	return ar
}

func putArena(ar *pipeArena) { pipePool.Put(ar) }

// i32 bump-allocates a zeroed []int32. Slices handed out earlier in the same
// run stay valid (they pin the old backing if it is replaced by growth).
func (ar *pipeArena) i32(n int) []int32 {
	ar.words += n
	if ar.i32off+n > len(ar.i32buf) {
		c := 2 * len(ar.i32buf)
		if c < ar.i32off+n {
			c = ar.i32off + n
		}
		if c < 1024 {
			c = 1024
		}
		ar.i32buf = make([]int32, c)
		ar.i32off = 0
	}
	s := ar.i32buf[ar.i32off : ar.i32off+n : ar.i32off+n]
	ar.i32off += n
	clear(s)
	return s
}

// u64 bump-allocates a zeroed []uint64 (a fixed-width bitset).
func (ar *pipeArena) u64(n int) []uint64 {
	ar.words += 2 * n
	if ar.u64off+n > len(ar.u64buf) {
		c := 2 * len(ar.u64buf)
		if c < ar.u64off+n {
			c = ar.u64off + n
		}
		if c < 256 {
			c = 256
		}
		ar.u64buf = make([]uint64, c)
		ar.u64off = 0
	}
	s := ar.u64buf[ar.u64off : ar.u64off+n : ar.u64off+n]
	ar.u64off += n
	clear(s)
	return s
}

// symbols materializes the automaton's cached alphabet bitset, sorted. The
// buffer is shared per arena: the result is valid only until the next
// buildAdjacency on the same arena.
func (ar *pipeArena) symbols(a *FSA) []Symbol {
	out := ar.symbuf[:0]
	for wi, w := range a.alpha {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			w &^= 1 << uint(i)
			out = append(out, Symbol(wi<<6+i))
		}
	}
	ar.symbuf = out
	return out
}

// interner deduplicates state sets (fixed-width bitsets) during subset
// construction: an open-addressing table over FNV-hashed set words mapping
// each distinct set to a dense id — replacing the former sorted
// "%d,%d,…"-string keys. Set payloads live concatenated in data.
type interner struct {
	w     int // words per set
	n     int
	data  []uint64
	table []int32 // set id + 1; 0 means empty
}

func (in *interner) init(w int) {
	in.w, in.n = w, 0
	in.data = in.data[:0]
	if len(in.table) < 64 {
		in.table = make([]int32, 64)
	} else {
		clear(in.table)
	}
}

// fnvWords is FNV-1a folded over 64-bit words.
func fnvWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h ^= w
		h *= 1099511628211
	}
	return h
}

func (in *interner) set(id int) bitset {
	return bitset(in.data[id*in.w : (id+1)*in.w])
}

// lookupOrAdd interns set, reporting its id and whether it was new. The set
// is copied, so the caller may keep mutating its scratch buffer.
func (in *interner) lookupOrAdd(set bitset) (int, bool) {
	mask := uint64(len(in.table) - 1)
	i := fnvWords(set) & mask
	for in.table[i] != 0 {
		id := int(in.table[i] - 1)
		if wordsEqual(in.data[id*in.w:(id+1)*in.w], set) {
			return id, false
		}
		i = (i + 1) & mask
	}
	id := in.n
	in.n++
	in.data = append(in.data, set...)
	in.table[i] = int32(id + 1)
	if 4*in.n >= 3*len(in.table) {
		in.grow()
	}
	return id, true
}

func (in *interner) grow() {
	old := in.table
	in.table = make([]int32, 2*len(old))
	mask := uint64(len(in.table) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		id := int(v - 1)
		i := fnvWords(in.data[id*in.w:(id+1)*in.w]) & mask
		for in.table[i] != 0 {
			i = (i + 1) & mask
		}
		in.table[i] = v
	}
}

func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// adjacency is the symbol-indexed dense view of an automaton, built once
// per pipeline stage: per-state non-epsilon out-transitions in CSR form
// with symbols renumbered to dense indexes 0..k-1 (sorted symbol order),
// plus a separate epsilon CSR. With reversed=true it indexes the reversed
// automaton without materializing it.
type adjacency struct {
	n        int
	syms     []Symbol // sorted distinct non-epsilon symbols
	start    []int32  // len n+1: CSR offsets into tsym/tto
	tsym     []int32  // dense symbol index per transition
	tto      []int32
	epsStart []int32 // len n+1
	epsTo    []int32
	hasEps   bool
}

func buildAdjacency(a *FSA, reversed bool, ar *pipeArena) adjacency {
	n := a.numStates
	adj := adjacency{n: n, syms: ar.symbols(a)}
	symIdx := ar.i32(64 * len(a.alpha)) // symbol -> dense index + 1
	for i, s := range adj.syms {
		symIdx[s] = int32(i + 1)
	}
	adj.start = ar.i32(n + 1)
	adj.epsStart = ar.i32(n + 1)
	for from, ts := range a.out {
		for _, t := range ts {
			src := from
			if reversed {
				src = t.To
			}
			if t.Sym == Epsilon {
				adj.epsStart[src+1]++
			} else {
				adj.start[src+1]++
			}
		}
	}
	for s := 0; s < n; s++ {
		adj.start[s+1] += adj.start[s]
		adj.epsStart[s+1] += adj.epsStart[s]
	}
	m, me := int(adj.start[n]), int(adj.epsStart[n])
	adj.tsym = ar.i32(m)
	adj.tto = ar.i32(m)
	adj.epsTo = ar.i32(me)
	adj.hasEps = me > 0
	cur := ar.i32(n)
	cure := ar.i32(n)
	copy(cur, adj.start[:n])
	copy(cure, adj.epsStart[:n])
	for from, ts := range a.out {
		for _, t := range ts {
			src, dst := from, t.To
			if reversed {
				src, dst = t.To, from
			}
			if t.Sym == Epsilon {
				adj.epsTo[cure[src]] = int32(dst)
				cure[src]++
			} else {
				adj.tsym[cur[src]] = symIdx[t.Sym] - 1
				adj.tto[cur[src]] = int32(dst)
				cur[src]++
			}
		}
	}
	return adj
}

// closure expands set across epsilon transitions, in place.
func (adj *adjacency) closure(set bitset, ar *pipeArena) {
	if !adj.hasEps {
		return
	}
	work := ar.cwork[:0]
	for wi, w := range set {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			w &^= 1 << uint(i)
			work = append(work, int32(wi<<6+i))
		}
	}
	for len(work) > 0 {
		s := int(work[len(work)-1])
		work = work[:len(work)-1]
		for j := adj.epsStart[s]; j < adj.epsStart[s+1]; j++ {
			t := adj.epsTo[j]
			if set[t>>6]&(1<<(uint(t)&63)) == 0 {
				set[t>>6] |= 1 << (uint(t) & 63)
				work = append(work, t)
			}
		}
	}
	ar.cwork = work[:0]
}

// Determinize performs the subset construction, returning a deterministic
// automaton (single start state, no epsilon transitions, at most one
// transition per (state, symbol)). Missing transitions mean rejection.
func (a *FSA) Determinize() *FSA {
	ar := getArena()
	defer putArena(ar)
	adj := buildAdjacency(a, false, ar)
	return determinize(&adj, a.starts, a.finals, ar)
}

// determinize is the bitset subset construction over a prebuilt adjacency:
// subsets are fixed-width bitsets deduplicated through the FNV interner,
// and the per-symbol move sets are arena bitsets reused across subsets.
// starts/finals are read against adj (so a reversed adjacency passes the
// original finals as starts and vice versa).
func determinize(adj *adjacency, starts, finals bitset, ar *pipeArena) *FSA {
	w := bitsWords(adj.n)
	ar.in.init(w)
	k := len(adj.syms)
	for len(ar.symSets) < k {
		ar.symSets = append(ar.symSets, nil)
	}
	for len(ar.symMark) < k {
		ar.symMark = append(ar.symMark, 0)
	}

	cur := bitset(ar.u64(w))
	copy(cur, starts)
	adj.closure(cur, ar)
	ar.in.lookupOrAdd(cur) // id 0
	d := New(1)
	d.SetStart(0)
	if cur.intersects(finals) {
		d.SetFinal(0)
	}
	work := append(ar.work[:0], 0)
	touched := ar.touched[:0]

	for len(work) > 0 {
		curID := int(work[len(work)-1])
		work = work[:len(work)-1]
		ar.round++
		touched = touched[:0]
		// Bucket the subset's moves by dense symbol index. The interned
		// payload is only read here, before lookupOrAdd can grow data.
		set := ar.in.set(curID)
		for wi, wd := range set {
			for wd != 0 {
				i := bits.TrailingZeros64(wd)
				wd &^= 1 << uint(i)
				s := wi<<6 + i
				for j := adj.start[s]; j < adj.start[s+1]; j++ {
					si := adj.tsym[j]
					ss := ar.symSets[si]
					if ar.symMark[si] != ar.round {
						ar.symMark[si] = ar.round
						touched = append(touched, int(si))
						if len(ss) < w {
							ss = make(bitset, w)
							ar.symSets[si] = ss
						} else {
							clear(ss[:w])
						}
					}
					to := adj.tto[j]
					ss[to>>6] |= 1 << (uint(to) & 63)
				}
			}
		}
		sort.Ints(touched)
		for _, si := range touched {
			next := ar.symSets[si][:w]
			adj.closure(next, ar)
			id, isNew := ar.in.lookupOrAdd(next)
			if isNew {
				ns := d.AddState()
				if next.intersects(finals) {
					d.SetFinal(ns)
				}
				work = append(work, int32(id))
			}
			d.Add(curID, adj.syms[si], id)
		}
	}
	ar.work = work[:0]
	ar.touched = touched[:0]
	return d
}

// partition is a refinable partition of the elements 0..n-1 (Valmari and
// Lehtinen's data structure): elems is a permutation grouped by set, loc
// its inverse, and set s spans elems[first[s]:past[s]) with its marked
// members moved to the front, elems[first[s]:first[s]+marked[s]). Marking
// an element and splitting every marked set off its unmarked rest cost
// O(1) per marked element.
type partition struct {
	sets    int
	elems   []int32
	loc     []int32
	set     []int32 // set[e]: the set holding element e
	first   []int32
	past    []int32
	marked  []int32
	touched []int32 // sets with a marked member, each listed once
}

// init makes every element 0..n-1 one set (none when n == 0), with all
// scratch drawn from the arena; touched is caller-owned backing.
func (p *partition) init(n int, ar *pipeArena, touched []int32) {
	p.elems, p.loc, p.set = ar.i32(n), ar.i32(n), ar.i32(n)
	p.first, p.past, p.marked = ar.i32(n), ar.i32(n), ar.i32(n)
	p.touched = touched[:0]
	p.sets = 0
	if n > 0 {
		p.sets, p.past[0] = 1, int32(n)
	}
	for e := range p.elems {
		p.elems[e], p.loc[e] = int32(e), int32(e)
	}
}

// mark moves e into its set's marked prefix. Each element is marked at
// most once between splits (the callers' DFA invariant guarantees it).
func (p *partition) mark(e int32) {
	s := p.set[e]
	i, j := p.loc[e], p.first[s]+p.marked[s]
	o := p.elems[j]
	p.elems[i], p.loc[o] = o, i
	p.elems[j], p.loc[e] = e, j
	if p.marked[s] == 0 {
		p.touched = append(p.touched, s)
	}
	p.marked[s]++
}

// split separates every touched set into its marked and unmarked parts;
// the smaller part becomes a new set, so each element changes set id
// O(log n) times over a whole refinement.
func (p *partition) split() {
	for _, s := range p.touched {
		j := p.first[s] + p.marked[s]
		if j == p.past[s] {
			p.marked[s] = 0
			continue
		}
		z := p.sets
		p.sets++
		if p.marked[s] <= p.past[s]-j {
			p.first[z], p.past[z], p.first[s] = p.first[s], j, j
		} else {
			p.first[z], p.past[z], p.past[s] = j, p.past[s], j
		}
		for i := p.first[z]; i < p.past[z]; i++ {
			p.set[p.elems[i]] = int32(z)
		}
		p.marked[s], p.marked[z] = 0, 0
	}
	p.touched = p.touched[:0]
}

// minimize is Valmari and Lehtinen's minimization of a trim DFA on its
// partial transition function ("Efficient minimization of DFAs with
// partial transition functions", STACS 2008). It refines a partition of
// the states (blocks) together with a partition of the transitions into
// cords, which start as the transitions grouped by label: a cord splits
// the blocks by which states have a transition in it, and a new block
// splits the cords by which transitions enter it. Missing transitions need
// no dead state and no state × symbol table, so the cost is O(n + m log n)
// time and O(n + m + k) space for n states, m transitions and k labels,
// however wide the alphabet (plus one word per 64 symbol values, the
// alphabet bitset's own size, for the label ranks). The quotient keeps one representative state
// per block, the block's lowest-numbered state, and is numbered in
// representative order; the representatives' transitions are exactly the
// quotient's, so it needs neither deduplication nor trimming.
func minimize(d *FSA, ar *pipeArena) *FSA {
	n, m := d.numStates, d.index.n
	// Dense labels: a symbol's label is its rank in the alphabet, read as
	// the count of alphabet symbols in lower bitset words plus those below
	// it in its own word.
	rank := ar.i32(len(d.alpha))
	k := 0
	for wi, w := range d.alpha {
		rank[wi] = int32(k)
		k += bits.OnesCount64(w)
	}
	label := func(s Symbol) int32 {
		return rank[s>>6] + int32(bits.OnesCount64(d.alpha[s>>6]&(1<<(uint(s)&63)-1)))
	}

	// Transitions are numbered in state order: tail[t] is t's source, and
	// inStart/inTr is the CSR of transitions by target.
	tail := ar.i32(m)
	inStart := ar.i32(n + 1)
	cstart := ar.i32(k + 1) // transitions per label, then offsets
	for _, ts := range d.out {
		for _, t := range ts {
			inStart[t.To+1]++
			cstart[label(t.Sym)+1]++
		}
	}
	for s := 0; s < n; s++ {
		inStart[s+1] += inStart[s]
	}
	for l := 0; l < k; l++ {
		cstart[l+1] += cstart[l]
	}
	var blocks, cords partition
	blocks.init(n, ar, ar.btouch)
	cords.init(m, ar, ar.ctouch)
	inTr := ar.i32(m)
	inCur := ar.i32(n)
	copy(inCur, inStart[:n])
	// The initial cords: transitions grouped by label, in state order
	// within a label (a counting sort).
	ccur := ar.i32(k)
	copy(ccur, cstart[:k])
	tr := int32(0)
	for from, ts := range d.out {
		for _, t := range ts {
			tail[tr] = int32(from)
			inTr[inCur[t.To]] = tr
			inCur[t.To]++
			l := label(t.Sym)
			cords.elems[ccur[l]], cords.loc[tr], cords.set[tr] = tr, ccur[l], l
			ccur[l]++
			tr++
		}
	}
	if m > 0 {
		cords.sets = k
		for l := 0; l < k; l++ {
			cords.first[l], cords.past[l] = cstart[l], cstart[l+1]
		}
	}
	// The initial blocks: final and non-final states.
	d.finals.forEach(func(s int) { blocks.mark(int32(s)) })
	blocks.split()

	// Block 0 is never a splitter: the initial cords are whole label
	// classes and every other block id is processed once, so transitions
	// into block 0 are what remains of a cord once the others split off.
	for b, c := 1, 0; c < cords.sets; c++ {
		for i := cords.first[c]; i < cords.past[c]; i++ {
			blocks.mark(tail[cords.elems[i]])
		}
		blocks.split()
		for ; b < blocks.sets; b++ {
			for i := blocks.first[b]; i < blocks.past[b]; i++ {
				q := blocks.elems[i]
				for j := inStart[q]; j < inStart[q+1]; j++ {
					cords.mark(inTr[j])
				}
			}
			cords.split()
		}
	}
	ar.btouch, ar.ctouch = blocks.touched[:0], cords.touched[:0]

	// Emit the quotient from each block's lowest state.
	qid := ar.i32(blocks.sets) // block -> quotient state + 1
	reps := ar.i32(blocks.sets)
	nq, mq := 0, 0
	for s := 0; s < n; s++ {
		if b := blocks.set[s]; qid[b] == 0 {
			qid[b] = int32(nq) + 1
			reps[nq] = int32(s)
			nq++
			mq += len(d.out[s])
		}
	}
	q := New(nq)
	q.Reserve(mq)
	for i, s := range reps {
		for _, t := range d.out[s] {
			q.Add(i, t.Sym, int(qid[blocks.set[t.To]]-1))
		}
	}
	d.starts.forEach(func(s int) { q.SetStart(int(qid[blocks.set[s]] - 1)) })
	d.finals.forEach(func(s int) { q.SetFinal(int(qid[blocks.set[s]] - 1)) })
	return q
}

// MRDStats reports the fused pipeline's sub-phase breakdown (the automaton
// share of the paper's Fig. 21 timings).
type MRDStats struct {
	// DetStates is the state count of the reversed automaton's DFA before
	// trimming — the §4.2 "determinize shrinks in practice" observable.
	DetStates   int
	Determinize time.Duration
	Minimize    time.Duration
}

// MRD computes the minimal reverse-deterministic automaton of a — the
// fused reverse → determinize → minimize → reverse chain of Alg. 1 lines
// 4–8. The reversal is folded into the subset construction's adjacency
// (the reversed automaton is never materialized), the minimal DFA is
// already epsilon-free so no epsilon-removal pass runs, and both stages
// share one scratch arena.
func MRD(a *FSA) (*FSA, MRDStats) {
	var st MRDStats
	ar := getArena()
	defer putArena(ar)
	t0 := time.Now()
	radj := buildAdjacency(a, true, ar)
	d := determinize(&radj, a.finals, a.starts, ar)
	st.DetStates = d.NumStates()
	st.Determinize = time.Since(t0)
	t1 := time.Now()
	d = d.Trim()
	m := d
	if d.NumStates() > 0 {
		m = minimize(d, ar)
	}
	st.Minimize = time.Since(t1)
	return m.Reverse(), st
}
