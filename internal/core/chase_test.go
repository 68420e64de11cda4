package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
)

// randPatternK grows a random connected pattern of up to k nodes over two
// node labels, the wildcard and two edge labels, closing an edge between
// two existing nodes now and then.
func randPatternK(r *rand.Rand, k int) *pattern.Pattern {
	nodes := []string{"p", "q", pattern.Wildcard}
	edges := []string{"e", "f"}
	p := pattern.SingleNode(nodes[r.Intn(3)])
	for n := r.Intn(k); n > 0; n-- {
		if p.N() >= 2 && (p.N() == k || r.Intn(4) == 0) {
			src, dst := r.Intn(p.N()), r.Intn(p.N())
			if src != dst {
				p = p.ExtendClosingEdge(src, dst, edges[r.Intn(2)])
			}
			continue
		}
		p = p.ExtendNewNode(r.Intn(p.N()), edges[r.Intn(2)], nodes[r.Intn(3)], r.Intn(2) == 0)
	}
	return p
}

// randSigma draws a few patterns of up to four variables, some of them
// extensions of others so that their GFDs embed, and n GFDs over them
// with at most two premises and a constant, variable or false right-hand
// side.
func randSigma(r *rand.Rand, n int) ([]*pattern.Pattern, []*GFD) {
	pats := []*pattern.Pattern{randPatternK(r, 4)}
	for len(pats) < 2+r.Intn(3) {
		if p := pats[r.Intn(len(pats))]; p.N() < 4 && r.Intn(2) == 0 {
			pats = append(pats, p.ExtendNewNode(r.Intn(p.N()), "e", pattern.Wildcard, r.Intn(2) == 0))
		} else {
			pats = append(pats, randPatternK(r, 4))
		}
	}
	sigma := make([]*GFD, n)
	for i := range sigma {
		q := pats[r.Intn(len(pats))]
		sigma[i] = New(q, randLiterals(r, q.N(), 2, false), randLiteral(r, q.N(), true))
	}
	return pats, sigma
}

// randQuery draws a literal to ask a closure over q about: mostly over
// q's terms, sometimes naming an attribute or a variable no literal of
// the input mentions.
func randQuery(r *rand.Rand, q *pattern.Pattern) Literal {
	l := randLiteral(r, q.N(), true)
	switch r.Intn(8) {
	case 0:
		l.A = "c"
	case 1:
		l.X = q.N()
	}
	return l
}

// TestChaseMatchesFixpoint holds the compiled chase to the fixpoint it
// replaced on random patterns of up to four variables with wildcards and
// random Σ: Implies (fresh and on a reused Implier), Satisfiable, the
// Holds of Enforced and ComputeClosure, and a group chase that switches
// members off as Reduce does, against closureRef over the rebuilt rest.
func TestChaseMatchesFixpoint(t *testing.T) {
	var implied, kept, sat, unsat int
	var reused Implier
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pats, sigma := randSigma(r, 1+r.Intn(8))
		for range 4 {
			q := pats[r.Intn(len(pats))]
			phi := New(q, randLiterals(r, q.N(), 2, false), randLiteral(r, q.N(), true))
			var sub []*GFD
			for _, g := range sigma {
				if r.Intn(3) > 0 {
					sub = append(sub, g)
				}
			}
			want := impliesRef(sub, phi)
			if got := Implies(sub, phi); got != want {
				t.Logf("Implies(%v, %v) = %v, fixpoint says %v", sub, phi, got, want)
				return false
			}
			if got := reused.Implies(sub, phi); got != want {
				t.Logf("reused Implies(%v, %v) = %v, fixpoint says %v", sub, phi, got, want)
				return false
			}
		}
		want := satisfiableRef(sigma)
		if got := Satisfiable(sigma); got != want {
			t.Logf("Satisfiable(%v) = %v, fixpoint says %v", sigma, got, want)
			return false
		}
		if want {
			sat++
		} else {
			unsat++
		}
		for _, q := range pats {
			x := randLiterals(r, q.N(), 2, r.Intn(8) == 0)
			enf, cl := Enforced(sigma, q), ComputeClosure(sigma, q, x)
			enfRef, clRef := closureRef(sigma, q, nil), closureRef(sigma, q, x)
			if enf.Conflicting() != enfRef.conflicting || cl.Conflicting() != clRef.conflicting {
				t.Logf("on %v: conflicting %v, %v; fixpoint %v, %v", q, enf.Conflicting(), cl.Conflicting(), enfRef.conflicting, clRef.conflicting)
				return false
			}
			for range 6 {
				l := randQuery(r, q)
				if enf.Holds(l) != enfRef.holds(l) || cl.Holds(l) != clRef.holds(l) {
					t.Logf("on %v with X = %v: Holds(%v) %v, %v; fixpoint %v, %v", q, x, l, enf.Holds(l), cl.Holds(l), enfRef.holds(l), clRef.holds(l))
					return false
				}
			}
		}
		// A group chase over a random split of Σ into rules and members.
		var rules, members []*GFD
		for _, g := range sigma {
			if r.Intn(3) == 0 {
				rules = append(rules, g)
			} else {
				members = append(members, g)
			}
		}
		var im Implier
		ch := im.Chase(rules, members)
		dropped := make([]bool, len(members))
		for i, phi := range members {
			rest := append([]*GFD(nil), rules...)
			for j, psi := range members {
				if j != i && !dropped[j] {
					rest = append(rest, psi)
				}
			}
			got, want := ch.Implied(i), impliesRef(rest, phi)
			if got != want {
				t.Logf("member %d of %v: Implied = %v, fixpoint over the rest says %v", i, members, got, want)
				return false
			}
			if got {
				implied++
				ch.Drop(i)
				dropped[i] = true
			} else {
				kept++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if implied < 200 || kept < 200 || sat < 100 || unsat < 20 {
		t.Fatalf("too few of each answer: %d members implied, %d kept; %d Σ satisfiable, %d not", implied, kept, sat, unsat)
	}
	t.Logf("%d members implied, %d kept; %d Σ satisfiable, %d not", implied, kept, sat, unsat)
}

// TestChaseTestAllocatesNothing: once a group's chase is built, testing a
// member allocates nothing.
func TestChaseTestAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	_, sigma := randSigma(r, 30)
	var im Implier
	ch := im.Chase(sigma[:10], sigma[10:])
	members := len(sigma) - 10
	test := func() {
		for i := range members {
			ch.Implied(i)
		}
	}
	test()
	if n := testing.AllocsPerRun(50, test); n != 0 {
		t.Fatalf("testing %d members allocates %.1f times", members, n)
	}
}
