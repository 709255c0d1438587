package fsa

// Differential tests for the dense automaton pipeline: the former
// map[int]bool / sorted-string-key implementations of the subset
// construction and the complete-DFA Hopcroft minimizer live on here as
// reference oracles (together with MinimizeMoore in ops.go), and the dense
// bitset Determinize / Valmari–Lehtinen Minimize / fused MRD chain are
// checked against them on random NFAs — including automata with epsilon
// transitions and ≥ 64 states, so subsets span more than one bitset word,
// and wide-alphabet DFAs with partial transition functions, the shape the
// slicing pipeline minimizes.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceHopcroft is the retired production minimizer (verbatim but for
// its worklists, now local slices): Hopcroft's partition refinement on the completed DFA of a trim input —
// a flat n×k successor table, a per-(symbol, state) inverse CSR, and an
// implicit dead state — which costs Θ(n·k) time and space however few
// transitions the DFA has.
func referenceHopcroft(d *FSA, ar *pipeArena) *FSA {
	n := d.numStates
	adj := buildAdjacency(d, false, ar)
	k := len(adj.syms)
	dead := n
	total := n + 1

	// succ[s*k+si] = successor+1; 0 means the implicit dead state.
	succ := ar.i32(total * k)
	for s := 0; s < n; s++ {
		for j := adj.start[s]; j < adj.start[s+1]; j++ {
			succ[s*k+int(adj.tsym[j])] = adj.tto[j] + 1
		}
	}
	// Inverse CSR over (symbol, target): every (state, symbol) pair
	// contributes one predecessor entry (missing transitions target dead).
	invStart := ar.i32(k*total + 1)
	for s := 0; s < total; s++ {
		for si := 0; si < k; si++ {
			to := dead
			if s < n {
				if v := succ[s*k+si]; v != 0 {
					to = int(v - 1)
				}
			}
			invStart[si*total+to+1]++
		}
	}
	for i := 1; i <= k*total; i++ {
		invStart[i] += invStart[i-1]
	}
	invPred := ar.i32(total * k)
	invCur := ar.i32(k * total)
	copy(invCur, invStart[:k*total])
	for s := 0; s < total; s++ {
		for si := 0; si < k; si++ {
			to := dead
			if s < n {
				if v := succ[s*k+si]; v != 0 {
					to = int(v - 1)
				}
			}
			invPred[invCur[si*total+to]] = int32(s)
			invCur[si*total+to]++
		}
	}

	// Partition refinement state: elems is a permutation of the states,
	// grouped by block; each block is elems[first:end) with its marked
	// members in elems[first:mid).
	elems := ar.i32(total)
	pos := ar.i32(total)
	blk := ar.i32(total)
	first := ar.i32(total)
	mid := ar.i32(total)
	end := ar.i32(total)
	nf := d.finals.count()
	i, j := 0, nf
	for s := 0; s < n; s++ {
		if d.finals.get(s) {
			elems[i] = int32(s)
			i++
		} else {
			elems[j] = int32(s)
			j++
		}
	}
	elems[j] = int32(dead)
	for e := 0; e < total; e++ {
		pos[elems[e]] = int32(e)
	}
	nb := 0
	addInit := func(lo, hi int) {
		first[nb], mid[nb], end[nb] = int32(lo), int32(lo), int32(hi)
		for e := lo; e < hi; e++ {
			blk[elems[e]] = int32(nb)
		}
		nb++
	}
	if nf > 0 {
		addInit(0, nf)
	}
	addInit(nf, total)

	// Worklist of (block, symbol) splitters, encoded block*k+symbol.
	inWork := bitset(ar.u64(bitsWords(total * k)))
	var work, bm, tb []int32
	push := func(b, si int) {
		sp := b*k + si
		if inWork[sp>>6]&(1<<(uint(sp)&63)) == 0 {
			inWork[sp>>6] |= 1 << (uint(sp) & 63)
			work = append(work, int32(sp))
		}
	}
	for b := 0; b < nb; b++ {
		for si := 0; si < k; si++ {
			push(b, si)
		}
	}

	for len(work) > 0 {
		sp := int(work[len(work)-1])
		work = work[:len(work)-1]
		inWork[sp>>6] &^= 1 << (uint(sp) & 63)
		bsp, si := sp/k, sp%k

		// Snapshot the splitter block: marking permutes elems, possibly
		// within this very block.
		bm = bm[:0]
		for e := first[bsp]; e < end[bsp]; e++ {
			bm = append(bm, elems[e])
		}
		// Mark every state with a si-transition into the splitter block.
		tb = tb[:0]
		for _, qe := range bm {
			row := si*total + int(qe)
			for x := invStart[row]; x < invStart[row+1]; x++ {
				p := invPred[x]
				pb := blk[p]
				if pos[p] < mid[pb] {
					continue // already marked
				}
				if mid[pb] == first[pb] {
					tb = append(tb, pb)
				}
				mp, pe := mid[pb], pos[p]
				o := elems[mp]
				elems[mp], elems[pe] = p, o
				pos[p], pos[o] = mp, pe
				mid[pb] = mp + 1
			}
		}
		// Split every block the marks cut.
		for _, pbv := range tb {
			pb := int(pbv)
			szIn := int(mid[pb] - first[pb])
			szOut := int(end[pb] - mid[pb])
			if szOut == 0 {
				mid[pb] = first[pb]
				continue
			}
			// The marked part keeps block id pb; the unmarked tail becomes
			// a new block.
			newb := nb
			nb++
			first[newb], mid[newb], end[newb] = mid[pb], mid[pb], end[pb]
			end[pb], mid[pb] = first[newb], first[pb]
			for e := first[newb]; e < end[newb]; e++ {
				blk[elems[e]] = int32(newb)
			}
			for s2 := 0; s2 < k; s2++ {
				if spb := pb*k + s2; inWork[spb>>6]&(1<<(uint(spb)&63)) != 0 {
					push(newb, s2)
				} else if szIn <= szOut {
					push(pb, s2)
				} else {
					push(newb, s2)
				}
			}
		}
	}

	// Emit the quotient automaton, skipping the dead block.
	deadBlock := blk[dead]
	remap := ar.i32(nb) // block -> state + 1
	m := New(0)
	for b := 0; b < nb; b++ {
		if int32(b) != deadBlock {
			remap[b] = int32(m.AddState()) + 1
		}
	}
	m.Reserve(d.index.n)
	for s := 0; s < n; s++ {
		fb := remap[blk[s]]
		if fb == 0 {
			continue
		}
		for j := adj.start[s]; j < adj.start[s+1]; j++ {
			if tbv := remap[blk[adj.tto[j]]]; tbv != 0 {
				m.Add(int(fb-1), adj.syms[adj.tsym[j]], int(tbv-1))
			}
		}
	}
	if sbv := remap[blk[d.Starts()[0]]]; sbv != 0 {
		m.SetStart(int(sbv - 1))
	}
	for _, f := range d.Finals() {
		if fbv := remap[blk[f]]; fbv != 0 {
			m.SetFinal(int(fbv - 1))
		}
	}
	return m.Trim()
}

// hopcroftMinimize is Minimize with the reference Hopcroft in place of
// the production minimizer.
func hopcroftMinimize(a *FSA) *FSA {
	d := a
	if !d.IsDeterministic() {
		d = d.RemoveEpsilon().Determinize()
	}
	d = d.Trim()
	if d.numStates == 0 {
		return d
	}
	ar := getArena()
	defer putArena(ar)
	return referenceHopcroft(d, ar)
}

// boolSet, sortedKeys, setKey, anyFinal, and the epsilon closure over
// map-based state sets are the retired production helpers, verbatim.

func boolSet(xs []int) map[int]bool {
	m := map[int]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func setKey(set map[int]bool) string {
	xs := sortedKeys(set)
	var sb strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&sb, "%d,", x)
	}
	return sb.String()
}

func anyFinal(a *FSA, set map[int]bool) bool {
	for s := range set {
		if a.IsFinal(s) {
			return true
		}
	}
	return false
}

func mapEpsClosure(a *FSA, set map[int]bool) map[int]bool {
	work := make([]int, 0, len(set))
	for s := range set {
		work = append(work, s)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range a.out[s] {
			if t.Sym == Epsilon && !set[t.To] {
				set[t.To] = true
				work = append(work, t.To)
			}
		}
	}
	return set
}

// referenceDeterminize is the retired map-based subset construction. It
// explores subsets in the same order as the dense implementation (LIFO
// worklist, symbols in sorted order), so the two must produce structurally
// identical DFAs, not merely language-equal ones.
func referenceDeterminize(a *FSA) *FSA {
	start := mapEpsClosure(a, boolSet(a.Starts()))
	key := setKey(start)
	index := map[string]int{key: 0}
	sets := []map[int]bool{start}
	d := New(1)
	if anyFinal(a, start) {
		d.SetFinal(0)
	}
	d.SetStart(0)
	work := []int{0}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		moves := map[Symbol]map[int]bool{}
		for s := range sets[cur] {
			for _, t := range a.out[s] {
				if t.Sym == Epsilon {
					continue
				}
				if moves[t.Sym] == nil {
					moves[t.Sym] = map[int]bool{}
				}
				moves[t.Sym][t.To] = true
			}
		}
		syms := make([]Symbol, 0, len(moves))
		for s := range moves {
			syms = append(syms, s)
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		for _, sym := range syms {
			next := mapEpsClosure(a, moves[sym])
			k := setKey(next)
			idx, ok := index[k]
			if !ok {
				idx = d.AddState()
				index[k] = idx
				sets = append(sets, next)
				if anyFinal(a, next) {
					d.SetFinal(idx)
				}
				work = append(work, idx)
			}
			d.Add(cur, sym, idx)
		}
	}
	return d
}

// randomWideNFA builds an NFA with 64–96 states (subsets cross the one-word
// bitset boundary), a handful of symbols, and a healthy epsilon share. It is
// kept sparse (~2 transitions per state) so the reference subset
// construction stays tractable across hundreds of iterations.
func randomWideNFA(rng *rand.Rand) *FSA {
	n := 64 + rng.Intn(33)
	a := New(n)
	for i := 0; i < 1+rng.Intn(3); i++ {
		a.SetStart(rng.Intn(n))
	}
	nsym := 3 + rng.Intn(4)
	for i := 0; i < 2*n; i++ {
		sym := Symbol(rng.Intn(nsym))
		if rng.Intn(6) == 0 {
			sym = Epsilon
		}
		a.Add(rng.Intn(n), sym, rng.Intn(n))
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		a.SetFinal(rng.Intn(n))
	}
	return a
}

func sameFSA(a, b *FSA) error {
	if a.NumStates() != b.NumStates() {
		return fmt.Errorf("state counts differ: %d vs %d", a.NumStates(), b.NumStates())
	}
	as, bs := a.Starts(), b.Starts()
	if fmt.Sprint(as) != fmt.Sprint(bs) {
		return fmt.Errorf("start sets differ: %v vs %v", as, bs)
	}
	af, bf := a.Finals(), b.Finals()
	if fmt.Sprint(af) != fmt.Sprint(bf) {
		return fmt.Errorf("final sets differ: %v vs %v", af, bf)
	}
	at, bt := a.Transitions(), b.Transitions()
	if len(at) != len(bt) {
		return fmt.Errorf("transition counts differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			return fmt.Errorf("transition %d differs: %v vs %v", i, at[i], bt[i])
		}
	}
	return nil
}

// TestDenseDeterminizeMatchesReference pits the bitset subset construction
// against the retired map-based one on ≥ 200 wide random NFAs, demanding
// structural identity.
func TestDenseDeterminizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20140611))
	for iter := 0; iter < 220; iter++ {
		a := randomWideNFA(rng)
		dense := a.Determinize()
		ref := referenceDeterminize(a)
		if err := sameFSA(dense, ref); err != nil {
			t.Fatalf("iter %d: dense vs reference determinize: %v", iter, err)
		}
		if !dense.IsDeterministic() {
			t.Fatalf("iter %d: dense result is not deterministic", iter)
		}
	}
}

// TestDenseMinimizeMatchesMooreWide checks the production minimizer and
// the reference Hopcroft against the map-based Moore oracle on wide
// automata: the minimal DFA is unique up to renaming, so state/transition
// counts must agree and the languages must be equal.
func TestDenseMinimizeMatchesMooreWide(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a := randomWideNFA(rng)
		v := a.Minimize()
		h := hopcroftMinimize(a)
		m := a.MinimizeMoore()
		for _, r := range []struct {
			name string
			got  *FSA
		}{{"minimize", v}, {"hopcroft", h}} {
			if r.got.NumStates() != m.NumStates() {
				t.Fatalf("iter %d: %s %d states, moore %d", iter, r.name, r.got.NumStates(), m.NumStates())
			}
			if r.got.NumTransitions() != m.NumTransitions() {
				t.Fatalf("iter %d: %s %d transitions, moore %d", iter, r.name, r.got.NumTransitions(), m.NumTransitions())
			}
			if err := isomorphic(r.got, m); err != nil {
				t.Fatalf("iter %d: %s vs moore: %v", iter, r.name, err)
			}
		}
	}
}

// wideSym spreads dense symbol indexes over sparse symbol values, so
// alphabets cross bitset words and leave gaps in them.
func wideSym(i int) Symbol { return Symbol(3*i + 70) }

// randomWideAlphabetDFA builds a DFA whose alphabet far exceeds its state
// count, with about one transition per symbol, so almost every (state,
// symbol) pair is missing — the shape of the reversed, determinized slice
// automaton. Its states are 1–3 copies of each state of a base DFA (every
// copy's transitions enter random copies of the base targets), so
// minimization has copies to merge; a few extra transitions and finals on
// single copies break some of those equivalences.
func randomWideAlphabetDFA(rng *rand.Rand, base, k int) *FSA {
	copies := make([][]int, base)
	n := 0
	for b := range copies {
		for c := 1 + rng.Intn(3); c > 0; c-- {
			copies[b] = append(copies[b], n)
			n++
		}
	}
	a := New(n)
	has := make(map[[2]int]bool) // (state, symbol index) already used
	addDet := func(from, si, to int) {
		if !has[[2]int{from, si}] {
			has[[2]int{from, si}] = true
			a.Add(from, wideSym(si), to)
		}
	}
	for si := 0; si < k; si++ {
		froms := []int{rng.Intn(base)}
		if rng.Intn(8) == 0 {
			froms = append(froms, rng.Intn(base))
		}
		for _, fb := range froms {
			tb := copies[rng.Intn(base)]
			for _, c := range copies[fb] {
				addDet(c, si, tb[rng.Intn(len(tb))])
			}
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		addDet(rng.Intn(n), rng.Intn(k), rng.Intn(n))
	}
	a.SetStart(copies[0][0])
	for i := 1 + rng.Intn(3); i > 0; i-- {
		for _, c := range copies[rng.Intn(base)] {
			a.SetFinal(c)
		}
	}
	if rng.Intn(3) == 0 {
		a.SetFinal(rng.Intn(n))
	}
	return a
}

// isomorphic reports whether two trim DFAs are equal up to state renaming,
// by a lockstep walk from their start states. For minimal DFAs this is
// language equality, checked without minimizing either side again.
func isomorphic(a, b *FSA) error {
	if a.NumStates() != b.NumStates() || a.NumTransitions() != b.NumTransitions() || a.NumFinals() != b.NumFinals() {
		return fmt.Errorf("shapes differ: %d/%d/%d vs %d/%d/%d states/transitions/finals",
			a.NumStates(), a.NumTransitions(), a.NumFinals(), b.NumStates(), b.NumTransitions(), b.NumFinals())
	}
	if a.NumStates() == 0 {
		return nil
	}
	if a.NumStarts() != 1 || b.NumStarts() != 1 {
		return fmt.Errorf("start counts %d and %d, want 1", a.NumStarts(), b.NumStarts())
	}
	toB := make([]int, a.NumStates()) // a state -> b state + 1
	seen := make([]bool, b.NumStates())
	x0, y0 := a.Starts()[0], b.Starts()[0]
	toB[x0], seen[y0] = y0+1, true
	work := []int{x0}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		y := toB[x] - 1
		if a.IsFinal(x) != b.IsFinal(y) {
			return fmt.Errorf("state %d/%d: finality differs", x, y)
		}
		if len(a.Out(x)) != len(b.Out(y)) {
			return fmt.Errorf("state %d/%d: out-degrees %d vs %d", x, y, len(a.Out(x)), len(b.Out(y)))
		}
		by := map[Symbol]int{}
		for _, t := range b.Out(y) {
			by[t.Sym] = t.To
		}
		for _, t := range a.Out(x) {
			yt, ok := by[t.Sym]
			switch {
			case !ok:
				return fmt.Errorf("state %d/%d: symbol %d missing", x, y, t.Sym)
			case toB[t.To] == 0:
				if seen[yt] {
					return fmt.Errorf("state %d/%d: %d maps onto an already-mapped state", x, y, t.To)
				}
				toB[t.To], seen[yt] = yt+1, true
				work = append(work, t.To)
			case toB[t.To] != yt+1:
				return fmt.Errorf("state %d/%d: symbol %d targets disagree", x, y, t.Sym)
			}
		}
	}
	return nil
}

// TestMinimizeWideAlphabetDifferential pits the Valmari–Lehtinen
// minimizer, the reference Hopcroft and MinimizeMoore against each other on
// wide-alphabet DFAs with partial transition functions: all three must
// agree on state count, transition count and language.
func TestMinimizeWideAlphabetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	merged := 0
	for iter := 0; iter < 60; iter++ {
		a := randomWideAlphabetDFA(rng, 2+rng.Intn(28), 64+rng.Intn(200))
		if !a.IsDeterministic() {
			t.Fatalf("iter %d: generator built a nondeterministic automaton", iter)
		}
		v := a.Minimize()
		h := hopcroftMinimize(a)
		m := a.MinimizeMoore()
		if !v.IsDeterministic() {
			t.Fatalf("iter %d: minimize result is not deterministic", iter)
		}
		if err := isomorphic(v, m); err != nil {
			t.Fatalf("iter %d: minimize vs moore: %v", iter, err)
		}
		if err := isomorphic(h, m); err != nil {
			t.Fatalf("iter %d: hopcroft vs moore: %v", iter, err)
		}
		if v.NumStates() < a.Trim().NumStates() {
			merged++
		}
	}
	if merged < 30 {
		t.Fatalf("only %d of 60 automata had states to merge; the generator is too easy", merged)
	}
}

// TestMinimizeScratchIsLinear is a count-based scaling guard: one
// minimization may request at most 16·(n+m+k) int32-sized arena words for
// n states, m transitions and k labels. A completed n×k table blows the
// bound on wide alphabets deterministically, with no wall clock — as the
// reference Hopcroft shows on the same inputs.
func TestMinimizeScratchIsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5222))
	for _, sz := range []struct{ base, k int }{{30, 2000}, {70, 5222}} {
		d := randomWideAlphabetDFA(rng, sz.base, sz.k).Trim()
		n, m, k := d.NumStates(), d.NumTransitions(), len(d.Alphabet())
		bound := 16 * (n + m + k)
		ar := getArena()
		minimize(d, ar)
		words := ar.words
		putArena(ar)
		ar = getArena()
		referenceHopcroft(d, ar)
		hwords := ar.words
		putArena(ar)
		if words > bound {
			t.Errorf("n=%d m=%d k=%d: minimize requested %d arena words, bound %d", n, m, k, words, bound)
		}
		if hwords <= bound {
			t.Errorf("n=%d m=%d k=%d: reference Hopcroft requested %d words, within the bound %d — the guard does not discriminate", n, m, k, hwords, bound)
		}
	}
}

// BenchmarkMinimizeWideAlphabet times one minimization of a DFA shaped like
// a gzip-scale printf:main slice automaton: 70 states, 5222 symbols, about
// one transition per symbol.
func BenchmarkMinimizeWideAlphabet(b *testing.B) {
	rng := rand.New(rand.NewSource(70))
	const n, k = 70, 5222
	a := New(n)
	owner := make([]int, k)
	for si := range owner {
		owner[si] = rng.Intn(n)
		a.Add(owner[si], wideSym(si), rng.Intn(n))
	}
	for i := 0; i < 16; i++ { // a second state on 16 of the symbols
		si := rng.Intn(k)
		a.Add((owner[si]+1+rng.Intn(n-1))%n, wideSym(si), rng.Intn(n))
	}
	a.SetStart(0)
	a.SetFinal(n - 1)
	d := a.Trim()
	for _, alg := range []struct {
		name string
		run  func(*FSA, *pipeArena) *FSA
	}{{"valmari", minimize}, {"hopcroft", referenceHopcroft}} {
		b.Run(alg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ar := getArena()
				alg.run(d, ar)
				putArena(ar)
			}
			b.ReportMetric(float64(d.NumTransitions()), "transitions")
		})
	}
}

// TestMRDMatchesComposedChain checks the fused MRD pipeline against the
// composed one it replaces, including the reported pre-trim DFA size.
func TestMRDMatchesComposedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a := randomWideNFA(rng)
		fused, st := MRD(a)
		rev := a.Reverse()
		det := rev.Determinize()
		if st.DetStates != det.NumStates() {
			t.Fatalf("iter %d: MRD reports %d det states, composed %d", iter, st.DetStates, det.NumStates())
		}
		composed := det.Minimize().Reverse().RemoveEpsilon()
		if err := sameFSA(fused, composed); err != nil {
			t.Fatalf("iter %d: fused vs composed MRD: %v", iter, err)
		}
	}
}

// TestAlphabetTracksAdd verifies the incremental alphabet cache: Alphabet
// reflects every Add immediately, stays sorted, and ignores epsilon.
func TestAlphabetTracksAdd(t *testing.T) {
	a := New(3)
	if got := a.Alphabet(); len(got) != 0 {
		t.Fatalf("fresh automaton alphabet = %v, want empty", got)
	}
	a.Add(0, 7, 1)
	a.Add(1, Epsilon, 2)
	a.Add(1, 3, 2)
	if got := fmt.Sprint(a.Alphabet()); got != "[3 7]" {
		t.Fatalf("alphabet = %v, want [3 7]", got)
	}
	a.Add(2, 100, 0) // crosses into a later bitset word
	if got := fmt.Sprint(a.Alphabet()); got != "[3 7 100]" {
		t.Fatalf("alphabet after Add = %v, want [3 7 100]", got)
	}
	a.Add(2, 100, 0) // duplicate: no change
	if got := fmt.Sprint(a.Alphabet()); got != "[3 7 100]" {
		t.Fatalf("alphabet after duplicate Add = %v", got)
	}
}
