package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file checks the implication analysis against ground truth: by the
// definition of Σ ⊨ φ, every graph satisfying Σ must satisfy φ. The
// property test generates random small rule sets and random graphs; any
// (G, Σ, φ) with core.Implies(Σ, φ) ∧ G ⊨ Σ ∧ G ⊭ φ would witness unsoundness
// of the closure characterisation's implementation.

func randomLiteralPool(n int) []core.Literal {
	pool := []core.Literal{}
	attrs := []string{"a", "b"}
	vals := []string{"1", "2"}
	for v := 0; v < n; v++ {
		for _, a := range attrs {
			for _, c := range vals {
				pool = append(pool, core.Const(v, a, c))
			}
		}
	}
	if n > 1 {
		pool = append(pool, core.Vars(0, "a", 1, "a"), core.Vars(0, "b", 1, "b"))
	}
	return pool
}

func randomSmallGFD(r *rand.Rand) *core.GFD {
	var q *pattern.Pattern
	labels := []string{"p", "q", pattern.Wildcard}
	if r.Intn(2) == 0 {
		q = pattern.SingleNode(labels[r.Intn(len(labels))])
	} else {
		q = pattern.SingleEdge(labels[r.Intn(len(labels))], "r", labels[r.Intn(len(labels))])
	}
	pool := randomLiteralPool(q.N())
	var x []core.Literal
	for i := 0; i < r.Intn(2); i++ {
		x = append(x, pool[r.Intn(len(pool))])
	}
	rhs := pool[r.Intn(len(pool))]
	if r.Intn(8) == 0 {
		rhs = core.False()
	}
	return core.New(q, x, rhs)
}

func randomModelGraph(r *rand.Rand) *graph.Graph {
	g := graph.New(6, 8)
	labels := []string{"p", "q"}
	vals := []string{"1", "2"}
	n := 2 + r.Intn(5)
	for i := 0; i < n; i++ {
		attrs := map[string]string{}
		if r.Intn(4) > 0 {
			attrs["a"] = vals[r.Intn(2)]
		}
		if r.Intn(4) > 0 {
			attrs["b"] = vals[r.Intn(2)]
		}
		g.AddNode(labels[r.Intn(2)], attrs)
	}
	for i := 0; i < n+2; i++ {
		s, d := r.Intn(n), r.Intn(n)
		if s != d {
			g.AddEdge(graph.NodeID(s), graph.NodeID(d), "r")
		}
	}
	g.Finalize()
	return g
}

// TestQuickImplicationSound: if Σ ⊨ φ by the closure characterisation,
// then no random graph satisfies Σ while violating φ.
func TestQuickImplicationSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sigma []*core.GFD
		for i := 0; i < 1+r.Intn(3); i++ {
			sigma = append(sigma, randomSmallGFD(r))
		}
		phi := randomSmallGFD(r)
		if !core.Implies(sigma, phi) {
			return true // nothing to check
		}
		for trial := 0; trial < 8; trial++ {
			g := randomModelGraph(r)
			satSigma := true
			for _, psi := range sigma {
				if !eval.Validate(g, psi) {
					satSigma = false
					break
				}
			}
			if satSigma && !eval.Validate(g, phi) {
				t.Logf("counterexample: Σ ⊨ φ claimed but G ⊨ Σ, G ⊭ φ\nφ = %s", phi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSatisfiabilityConsistent: a Σ that some random graph satisfies
// (with at least one applicable pattern) must be reported satisfiable —
// the contrapositive of the satisfiability characterisation.
func TestQuickSatisfiabilityConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sigma []*core.GFD
		for i := 0; i < 1+r.Intn(3); i++ {
			sigma = append(sigma, randomSmallGFD(r))
		}
		for trial := 0; trial < 6; trial++ {
			g := randomModelGraph(r)
			ok := true
			applicable := false
			for _, psi := range sigma {
				if !eval.Validate(g, psi) {
					ok = false
					break
				}
				if eval.PatternSupport(g, psi) > 0 {
					applicable = true
				}
			}
			if ok && applicable && !core.Satisfiable(sigma) {
				t.Logf("Σ has a model with an applicable GFD but Satisfiable says no")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoverEquivalent: covers computed from random rule sets are
// equivalent to the originals — every removed GFD is implied by the cover.
func TestQuickCoverEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var sigma []*core.GFD
		for i := 0; i < 2+r.Intn(5); i++ {
			sigma = append(sigma, randomSmallGFD(r))
		}
		// Local mini-cover: remove implied, most-specific first (mirrors
		// discovery.Cover without importing it — no cycle).
		work := append([]*core.GFD(nil), sigma...)
		for i := 0; i < len(work); i++ {
			rest := make([]*core.GFD, 0, len(work)-1)
			rest = append(rest, work[:i]...)
			rest = append(rest, work[i+1:]...)
			if core.Implies(rest, work[i]) {
				work = rest
				i--
			}
		}
		for _, phi := range sigma {
			if !core.Implies(work, phi) {
				in := false
				for _, psi := range work {
					if psi == phi {
						in = true
					}
				}
				if !in {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// reusePatterns are the host and rule patterns of the reuse-safety test.
// twin is edge() renumbered: the same pivoted pattern (equal canonical
// codes) with its variables swapped, so an embedding memo keyed by
// canonical code instead of by pattern would hand one of them the other's
// variable maps.
func reusePatterns(t *testing.T) []*pattern.Pattern {
	edge := pattern.SingleEdge("p", "r", "q")
	twin := &pattern.Pattern{
		NodeLabels: []string{"q", "p"},
		Edges:      []pattern.Edge{{Src: 1, Dst: 0, Label: "r"}},
		Pivot:      1,
	}
	if edge.CanonicalCode() != twin.CanonicalCode() {
		t.Fatal("twin must be isomorphic to edge")
	}
	path := pattern.SingleEdge("p", "r", "q").ExtendNewNode(1, "r", pattern.Wildcard, true)
	return []*pattern.Pattern{
		pattern.SingleNode("p"), pattern.SingleNode(pattern.Wildcard),
		edge, twin, pattern.SingleEdge(pattern.Wildcard, "r", "q"),
		pattern.SingleEdge("p", "r", "p"), path,
	}
}

// randomGFDOver draws a GFD over q with up to two premises; false is a
// possible right-hand side, and so is a literal of X (a trivial GFD).
func randomGFDOver(r *rand.Rand, q *pattern.Pattern) *core.GFD {
	pool := randomLiteralPool(q.N())
	var x []core.Literal
	for i := r.Intn(3); i > 0; i-- {
		x = append(x, pool[r.Intn(len(pool))])
	}
	rhs := pool[r.Intn(len(pool))]
	switch {
	case r.Intn(8) == 0:
		rhs = core.False()
	case len(x) > 0 && r.Intn(6) == 0:
		rhs = x[r.Intn(len(x))]
	}
	return core.New(q, x, rhs)
}

// TestQuickReusedImplierMatchesFresh drives one reused triviality checker
// and one reused implier through a random sequence of candidates over
// shared pattern pointers, as the miner and the cover do. Every answer
// must equal a fresh GFD.Trivial, core.Implies and core.Reduces: state
// left behind by earlier candidates — closure terms, fired rules, memoised
// embeddings — must never leak into a later answer.
func TestQuickReusedImplierMatchesFresh(t *testing.T) {
	pats := reusePatterns(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var triv, imp core.Implier
		var mined []*core.GFD
		for step := 0; step < 40; step++ {
			phi := randomGFDOver(r, pats[r.Intn(len(pats))])
			if got, want := triv.Trivial(phi.X, phi.RHS), phi.Trivial(); got != want {
				t.Logf("step %d: reused Trivial = %v, fresh = %v for %s", step, got, want, phi)
				return false
			}
			for _, psi := range mined {
				if got, want := triv.Reduces(psi, phi), core.Reduces(psi, phi); got != want {
					t.Logf("step %d: reused Reduces = %v, fresh = %v for %s ≪ %s", step, got, want, psi, phi)
					return false
				}
			}
			var sigma []*core.GFD
			for _, psi := range mined {
				if r.Intn(2) == 0 {
					sigma = append(sigma, psi)
				}
			}
			if got, want := imp.Implies(sigma, phi), core.Implies(sigma, phi); got != want {
				t.Logf("step %d: reused Implies = %v, fresh = %v for %s", step, got, want, phi)
				return false
			}
			mined = append(mined, phi)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestImplierTwinPatterns pins the case a canonical-code memo gets wrong:
// a rule on edge() fires into twin through the swapped variable map, so
// after chasing edge into itself the implier must still place the
// conclusion on twin's p-node (x1), not on x0.
func TestImplierTwinPatterns(t *testing.T) {
	pats := reusePatterns(t)
	edge, twin := pats[2], pats[3]
	rule := core.New(edge, nil, core.Const(0, "a", "1"))
	onP := core.New(twin, nil, core.Const(1, "a", "1"))
	onQ := core.New(twin, nil, core.Const(0, "a", "1"))
	var im core.Implier
	if !im.Implies([]*core.GFD{rule}, core.New(edge, nil, core.Const(0, "a", "1"))) {
		t.Fatal("a rule must imply itself")
	}
	if !im.Implies([]*core.GFD{rule}, onP) {
		t.Fatal("the rule must fire on twin's p-node")
	}
	if im.Implies([]*core.GFD{rule}, onQ) {
		t.Fatal("the rule fired on twin's q-node: embeddings were taken from the wrong pattern")
	}
}

// TestReusedTrivialAllocatesNothing: once warm, the miner's per-candidate
// triviality test allocates nothing.
func TestReusedTrivialAllocatesNothing(t *testing.T) {
	x := []core.Literal{core.Vars(0, "a", 1, "a"), core.Const(1, "a", "1"), core.Const(0, "b", "2")}
	var im core.Implier
	for _, rhs := range []core.Literal{core.Const(0, "a", "1"), core.Const(2, "c", "3"), core.False()} {
		im.Trivial(x, rhs)
		if n := testing.AllocsPerRun(100, func() { im.Trivial(x, rhs) }); n != 0 {
			t.Fatalf("reused Trivial(%v → %v) allocates %.1f times per call", x, rhs, n)
		}
	}
}
