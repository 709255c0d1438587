package fsa

import (
	"math/rand"
	"testing"
)

// buildWords builds an FSA accepting exactly the given words (a trie).
func buildWords(words [][]Symbol) *FSA {
	a := New(1)
	a.SetStart(0)
	type key struct {
		state int
		sym   Symbol
	}
	next := map[key]int{}
	for _, w := range words {
		cur := 0
		for _, sym := range w {
			if to, ok := next[key{cur, sym}]; ok {
				cur = to
				continue
			}
			to := a.AddState()
			a.Add(cur, sym, to)
			next[key{cur, sym}] = to
			cur = to
		}
		a.SetFinal(cur)
	}
	return a
}

func TestAcceptsBasic(t *testing.T) {
	a := buildWords([][]Symbol{{1, 2}, {1, 3}, {}})
	cases := []struct {
		w    []Symbol
		want bool
	}{
		{[]Symbol{1, 2}, true},
		{[]Symbol{1, 3}, true},
		{[]Symbol{}, true},
		{[]Symbol{1}, false},
		{[]Symbol{2}, false},
		{[]Symbol{1, 2, 3}, false},
	}
	for _, c := range cases {
		if got := a.Accepts(c.w); got != c.want {
			t.Errorf("Accepts(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestReverseTwiceSameLanguage(t *testing.T) {
	a := buildWords([][]Symbol{{1, 2, 3}, {1}, {2, 2}})
	if !Equal(a, a.Reverse().Reverse()) {
		t.Error("reverse twice changed the language")
	}
	r := a.Reverse()
	if !r.Accepts([]Symbol{3, 2, 1}) || !r.Accepts([]Symbol{1}) || r.Accepts([]Symbol{1, 2, 3}) {
		t.Error("reverse language wrong")
	}
}

func TestEpsilonRemoval(t *testing.T) {
	a := New(4)
	a.SetStart(0)
	a.Add(0, Epsilon, 1)
	a.Add(1, 5, 2)
	a.Add(2, Epsilon, 3)
	a.SetFinal(3)
	e := a.RemoveEpsilon()
	for _, tr := range e.Transitions() {
		if tr.Sym == Epsilon {
			t.Fatal("epsilon transition survives removal")
		}
	}
	if !e.Accepts([]Symbol{5}) || e.Accepts(nil) {
		t.Error("epsilon removal changed language")
	}
}

func TestDeterminizeAndMinimize(t *testing.T) {
	// Classic: (a|b)*abb needs a 4-state minimal DFA (a=1, b=2).
	a := New(4)
	a.SetStart(0)
	a.Add(0, 1, 0)
	a.Add(0, 2, 0)
	a.Add(0, 1, 1)
	a.Add(1, 2, 2)
	a.Add(2, 2, 3)
	a.SetFinal(3)
	d := a.Determinize()
	if !d.IsDeterministic() {
		t.Fatal("Determinize did not produce a DFA")
	}
	m := d.Minimize()
	if m.NumStates() != 4 {
		t.Errorf("minimal DFA has %d states, want 4", m.NumStates())
	}
	for _, c := range []struct {
		w    []Symbol
		want bool
	}{
		{[]Symbol{1, 2, 2}, true},
		{[]Symbol{1, 1, 2, 2}, true},
		{[]Symbol{2, 1, 2, 2}, true},
		{[]Symbol{1, 2}, false},
		{[]Symbol{2, 2}, false},
	} {
		if got := m.Accepts(c.w); got != c.want {
			t.Errorf("min.Accepts(%v) = %v, want %v", c.w, got, c.want)
		}
	}
}

func randomNFA(rng *rand.Rand) *FSA {
	n := 2 + rng.Intn(6)
	a := New(n)
	a.SetStart(rng.Intn(n))
	if rng.Intn(2) == 0 {
		a.SetStart(rng.Intn(n))
	}
	nsym := 1 + rng.Intn(3)
	for i := 0; i < 3*n; i++ {
		sym := Symbol(rng.Intn(nsym))
		if rng.Intn(8) == 0 {
			sym = Epsilon
		}
		a.Add(rng.Intn(n), sym, rng.Intn(n))
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		a.SetFinal(rng.Intn(n))
	}
	return a
}

func randomWords(rng *rand.Rand, nsym, count, maxLen int) [][]Symbol {
	var out [][]Symbol
	for i := 0; i < count; i++ {
		l := rng.Intn(maxLen + 1)
		w := make([]Symbol, l)
		for j := range w {
			w[j] = Symbol(rng.Intn(nsym))
		}
		out = append(out, w)
	}
	return out
}

// TestOperationsPreserveLanguage samples random NFAs and random words, and
// checks that determinize, minimize (both algorithms), epsilon removal, and
// trim preserve word membership.
func TestOperationsPreserveLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a := randomNFA(rng)
		d := a.Determinize()
		m := a.Minimize()
		mm := a.MinimizeMoore()
		e := a.RemoveEpsilon()
		tr := a.Trim()
		for _, w := range randomWords(rng, 3, 25, 6) {
			want := a.Accepts(w)
			if d.Accepts(w) != want {
				t.Fatalf("iter %d: determinize differs on %v\n%s", iter, w, a)
			}
			if m.Accepts(w) != want {
				t.Fatalf("iter %d: minimize differs on %v\n%s", iter, w, a)
			}
			if mm.Accepts(w) != want {
				t.Fatalf("iter %d: MinimizeMoore differs on %v\n%s", iter, w, a)
			}
			if e.Accepts(w) != want {
				t.Fatalf("iter %d: RemoveEpsilon differs on %v\n%s", iter, w, a)
			}
			if tr.Accepts(w) != want {
				t.Fatalf("iter %d: Trim differs on %v\n%s", iter, w, a)
			}
		}
	}
}

// TestHopcroftMatchesMoore checks that the reference Hopcroft oracle (see
// reference_test.go) and the production minimizer produce the same number
// of states as the Moore reference on random NFAs, and that all three are
// language-equal.
func TestHopcroftMatchesMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		a := randomNFA(rng)
		h := hopcroftMinimize(a)
		v := a.Minimize()
		m := a.MinimizeMoore()
		if h.NumStates() != m.NumStates() || v.NumStates() != m.NumStates() {
			t.Fatalf("iter %d: hopcroft %d, minimize %d, moore %d states\n%s", iter, h.NumStates(), v.NumStates(), m.NumStates(), a)
		}
		if err := isomorphic(h, m); err != nil {
			t.Fatalf("iter %d: hopcroft vs moore: %v", iter, err)
		}
		if err := isomorphic(v, m); err != nil {
			t.Fatalf("iter %d: minimize vs moore: %v", iter, err)
		}
	}
}

// TestMinimizeIsMinimal: minimizing a minimal DFA must not shrink it, and
// no DFA for the same language found by determinizing can be smaller.
func TestMinimizeIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 100; iter++ {
		a := randomNFA(rng)
		m := a.Minimize()
		if m2 := m.Minimize(); m2.NumStates() != m.NumStates() {
			t.Fatalf("iter %d: minimize not idempotent: %d -> %d", iter, m.NumStates(), m2.NumStates())
		}
	}
}

func TestIntersectUnionComplement(t *testing.T) {
	a := buildWords([][]Symbol{{1}, {1, 2}, {2}})
	b := buildWords([][]Symbol{{1, 2}, {2}, {2, 2}})
	inter := Intersect(a, b)
	uni := Union(a, b)
	for _, c := range []struct {
		w        []Symbol
		inI, inU bool
	}{
		{[]Symbol{1}, false, true},
		{[]Symbol{1, 2}, true, true},
		{[]Symbol{2}, true, true},
		{[]Symbol{2, 2}, false, true},
		{[]Symbol{1, 1}, false, false},
	} {
		if got := inter.Accepts(c.w); got != c.inI {
			t.Errorf("intersect(%v) = %v, want %v", c.w, got, c.inI)
		}
		if got := uni.Accepts(c.w); got != c.inU {
			t.Errorf("union(%v) = %v, want %v", c.w, got, c.inU)
		}
	}
	comp := a.Complement([]Symbol{1, 2})
	rng := rand.New(rand.NewSource(3))
	for _, w := range randomWords(rng, 2, 50, 5) {
		// Symbols here are 0/1; shift to 1/2.
		for i := range w {
			w[i]++
		}
		if comp.Accepts(w) == a.Accepts(w) {
			t.Errorf("complement agrees with original on %v", w)
		}
	}
}

func TestComplementDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := []Symbol{0, 1, 2}
	for iter := 0; iter < 50; iter++ {
		a := randomNFA(rng)
		b := randomNFA(rng)
		// L(a) ∩ L(b) == ¬(¬L(a) ∪ ¬L(b)) over the alphabet.
		lhs := Intersect(a, b)
		rhs := Union(a.Complement(alphabet), b.Complement(alphabet)).Complement(alphabet)
		// Compare only over words in the alphabet.
		for _, w := range randomWords(rng, 3, 20, 5) {
			if lhs.Accepts(w) != rhs.Accepts(w) {
				t.Fatalf("iter %d: de morgan violated on %v", iter, w)
			}
		}
	}
}

func TestEqual(t *testing.T) {
	a := buildWords([][]Symbol{{1, 2}, {1, 3}})
	b := New(4)
	b.SetStart(0)
	b.Add(0, 1, 1)
	b.Add(1, 2, 2)
	b.Add(1, 3, 3)
	b.SetFinal(2)
	b.SetFinal(3)
	if !Equal(a, b) {
		t.Error("equal languages reported different")
	}
	c := buildWords([][]Symbol{{1, 2}})
	if Equal(a, c) {
		t.Error("different languages reported equal")
	}
	empty1 := New(1)
	empty2 := New(3)
	if !Equal(empty1, empty2) {
		t.Error("two empty languages reported different")
	}
}

func TestRelabelAndInverse(t *testing.T) {
	a := buildWords([][]Symbol{{1, 2}, {3}})
	m := map[Symbol]Symbol{1: 10, 2: 20, 3: 10}
	r := a.Relabel(m)
	if !r.Accepts([]Symbol{10, 20}) || !r.Accepts([]Symbol{10}) {
		t.Error("relabel wrong")
	}
	inv := r.InverseRelabel(m)
	// Inverse of the image must contain the original words (1↦10 and 3↦10
	// merge, so {3,2} also appears).
	for _, w := range [][]Symbol{{1, 2}, {3}, {3, 2}, {1}} {
		if !inv.Accepts(w) {
			t.Errorf("inverse relabel missing %v", w)
		}
	}
}

func TestEnumerateWords(t *testing.T) {
	a := buildWords([][]Symbol{{1}, {1, 2}, {2, 2, 2}})
	words := a.EnumerateWords(5, 100)
	if len(words) != 3 {
		t.Fatalf("enumerated %d words, want 3: %v", len(words), words)
	}
	// Shortlex: {1} before {1,2} before {2,2,2}.
	if len(words[0]) != 1 || len(words[2]) != 3 {
		t.Errorf("enumeration order wrong: %v", words)
	}
}

func TestIsReverseDeterministic(t *testing.T) {
	// Two transitions with the same symbol into the same state break
	// reverse determinism.
	a := New(3)
	a.SetStart(0)
	a.SetStart(1)
	a.Add(0, 1, 2)
	a.Add(1, 1, 2)
	a.SetFinal(2)
	if a.IsReverseDeterministic() {
		t.Error("want not reverse-deterministic")
	}
	b := buildWords([][]Symbol{{1, 2}})
	if !b.IsReverseDeterministic() {
		t.Error("single-word trie must be reverse-deterministic")
	}
}
