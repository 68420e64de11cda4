package core

import (
	"math/rand"
	"testing"

	"repro/internal/pattern"
)

// randLiteral draws a literal over nvars variables, two attributes and two
// constants: constant literals that conflict, variable literals written
// either way round (x.A = y.B and y.B = x.A both occur), and, when
// withFalse is set, false.
func randLiteral(r *rand.Rand, nvars int, withFalse bool) Literal {
	attrs := []string{"a", "b"}
	consts := []string{"1", "2"}
	k := r.Intn(10)
	switch {
	case withFalse && k == 0:
		return False()
	case k < 5:
		return Const(r.Intn(nvars), attrs[r.Intn(2)], consts[r.Intn(2)])
	default:
		return Vars(r.Intn(nvars), attrs[r.Intn(2)], r.Intn(nvars), attrs[r.Intn(2)])
	}
}

func randLiterals(r *rand.Rand, nvars, max int, withFalse bool) []Literal {
	x := make([]Literal, r.Intn(max+1))
	for i := range x {
		x[i] = randLiteral(r, nvars, withFalse)
	}
	return x
}

// TestTrivialMatchesClosure checks the reused Implier's Trivial, with its
// closure-free answers, against the closure itself on random literal sets.
func TestTrivialMatchesClosure(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var im Implier
	trivial := 0
	for i := 0; i < 50000; i++ {
		nvars := 1 + r.Intn(3)
		x := randLiterals(r, nvars, 4, true)
		rhs := randLiteral(r, nvars, true)
		want := ComputeClosure(nil, nil, x).Holds(rhs)
		if got := im.Trivial(x, rhs); got != want {
			t.Fatalf("Trivial(%v → %v) = %v, closure says %v", x, rhs, got, want)
		}
		if want {
			trivial++
		}
	}
	if trivial < 1000 {
		t.Fatalf("only %d of 50000 random candidates were trivial", trivial)
	}
}

// randPattern grows a random connected pattern of up to three nodes over
// two node labels, the wildcard and two edge labels.
func randPattern(r *rand.Rand) *pattern.Pattern {
	nodes := []string{"p", "q", pattern.Wildcard}
	edges := []string{"e", "f"}
	p := pattern.SingleNode(nodes[r.Intn(3)])
	for n := r.Intn(3); n > 0; n-- {
		p = p.ExtendNewNode(r.Intn(p.N()), edges[r.Intn(2)], nodes[r.Intn(3)], r.Intn(2) == 0)
	}
	return p
}

// refReduces is Reduces without the shape filter: every pivot-preserving
// embedding tried with reducesVia.
func refReduces(g1, g2 *GFD) bool {
	found := false
	pattern.Embeddings(g1.Q, g2.Q, pattern.EmbedOptions{PivotPreserving: true}, func(f []int) bool {
		found = reducesVia(g1, g2, f)
		return !found
	})
	return found
}

// TestReducesMatchesEmbeddingLoop checks the reused Implier's Reduces,
// which rules out pairs by literal shape before any embedding lookup,
// against the plain embedding loop. φ2 often extends φ1's pattern and
// carries renamed copies of φ1's literals, so both answers occur.
func TestReducesMatchesEmbeddingLoop(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var im Implier
	reduces := 0
	for i := 0; i < 20000; i++ {
		q1 := randPattern(r)
		q2 := q1
		if r.Intn(2) == 0 {
			q2 = q1.ExtendNewNode(r.Intn(q1.N()), "e", "p", r.Intn(2) == 0)
		} else if r.Intn(2) == 0 {
			q2 = randPattern(r)
		}
		x1 := randLiterals(r, q1.N(), 2, false)
		x2 := randLiterals(r, q2.N(), 2, false)
		if q2.N() >= q1.N() && r.Intn(2) == 0 {
			// Copies of X1 under a random renaming, written either way round.
			f := r.Perm(q2.N())
			for _, l := range x1 {
				m := l.Remap(f)
				if m.Kind == LVar && r.Intn(2) == 0 {
					m.X, m.A, m.Y, m.B = m.Y, m.B, m.X, m.A
				}
				x2 = append(x2, m)
			}
		}
		rhs := randLiteral(r, q1.N(), true)
		g1, g2 := New(q1, x1, rhs), New(q2, x2, rhs)
		want := refReduces(g1, g2)
		if got := im.Reduces(g1, g2); got != want {
			t.Fatalf("Reduces(%v, %v) = %v, embedding loop says %v", g1, g2, got, want)
		}
		if want {
			reduces++
		}
	}
	if reduces < 500 {
		t.Fatalf("only %d of 20000 random pairs reduce", reduces)
	}
}
