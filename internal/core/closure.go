package core

import (
	"repro/internal/pattern"
)

// This file implements the closure characterisation of GFD satisfiability
// and implication (Section 3, after Lemmas 3 and 7 of Fan-Wu-Xu 2016):
//
//   - Σ is satisfiable iff some pattern Q in Σ has a non-conflicting
//     enforced(Σ_Q);
//   - Σ ⊨ φ = Q[x̄](X → l) iff closure(Σ_Q, X) is conflicting or contains l,
//
// where Σ_Q is the set of GFDs of Σ embedded in Q, and closure(Σ_Q, X) is
// the set of literals deduced by applying Σ_Q's dependencies through their
// embeddings into Q, closed under transitivity of equality.
//
// The closure itself is a union–find over the terms x.A appearing in Q's
// variable space, with at most one constant tag per class; it is the chase
// of relational dependency theory specialised to equality atoms.

// term is one x.A of the closure's variable space with its union–find
// state; the constant tag is meaningful at class roots only.
type term struct {
	v        int
	a        string
	parent   int
	rank     int
	constOf  string
	hasConst bool
}

// Closure is the deductive closure of a literal set over a pattern's
// variable space. The zero value is the empty closure. Its terms live in a
// slice searched linearly: a closure holds a handful of terms (the
// attributes its literals mention), and a reused Closure keeps its
// capacity, so building one allocates nothing once warm.
type Closure struct {
	terms       []term
	conflicting bool
}

// reset empties the closure, keeping its capacity.
func (c *Closure) reset() {
	c.terms = c.terms[:0]
	c.conflicting = false
}

// Conflicting reports whether the closure contains x.A = c and x.A = d for
// distinct constants c ≠ d (equivalently, false was derived).
func (c *Closure) Conflicting() bool { return c.conflicting }

func (c *Closure) term(v int, a string) int {
	if t, ok := c.lookup(v, a); ok {
		return t
	}
	t := len(c.terms)
	c.terms = append(c.terms, term{v: v, a: a, parent: t})
	return t
}

func (c *Closure) lookup(v int, a string) (int, bool) {
	for t := range c.terms {
		if c.terms[t].v == v && c.terms[t].a == a {
			return t, true
		}
	}
	return 0, false
}

func (c *Closure) find(t int) int {
	ts := c.terms
	for ts[t].parent != t {
		ts[t].parent = ts[ts[t].parent].parent
		t = ts[t].parent
	}
	return t
}

func (c *Closure) union(a, b int) bool {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return false
	}
	ts := c.terms
	if ts[ra].rank < ts[rb].rank {
		ra, rb = rb, ra
	}
	ts[rb].parent = ra
	if ts[ra].rank == ts[rb].rank {
		ts[ra].rank++
	}
	// Merge constant tags; conflicting tags derive false.
	if ts[rb].hasConst {
		if ts[ra].hasConst {
			if ts[ra].constOf != ts[rb].constOf {
				c.conflicting = true
			}
		} else {
			ts[ra].hasConst = true
			ts[ra].constOf = ts[rb].constOf
		}
	}
	return true
}

func (c *Closure) setConst(t int, val string) bool {
	r := &c.terms[c.find(t)]
	if r.hasConst {
		if r.constOf != val {
			c.conflicting = true
			return true
		}
		return false
	}
	r.hasConst = true
	r.constOf = val
	return true
}

// assert adds a literal to the closure; reports whether anything changed.
func (c *Closure) assert(l Literal) bool {
	switch l.Kind {
	case LConst:
		return c.setConst(c.term(l.X, l.A), l.C)
	case LVar:
		return c.union(c.term(l.X, l.A), c.term(l.Y, l.B))
	default: // LFalse
		changed := !c.conflicting
		c.conflicting = true
		return changed
	}
}

// holds reports whether the closure entails the literal.
func (c *Closure) holds(l Literal) bool {
	if c.conflicting {
		return true
	}
	switch l.Kind {
	case LConst:
		t, ok := c.lookup(l.X, l.A)
		if !ok {
			return false
		}
		r := &c.terms[c.find(t)]
		return r.hasConst && r.constOf == l.C
	case LVar:
		tx, okx := c.lookup(l.X, l.A)
		ty, oky := c.lookup(l.Y, l.B)
		if !okx || !oky {
			return false
		}
		rx, ry := c.find(tx), c.find(ty)
		if rx == ry {
			return true
		}
		// Equal constants entail equality by transitivity.
		x, y := &c.terms[rx], &c.terms[ry]
		return x.hasConst && y.hasConst && x.constOf == y.constOf
	default: // LFalse
		return c.conflicting
	}
}

// Holds reports whether the closure entails l; exported for eval/tests.
func (c *Closure) Holds(l Literal) bool { return c.holds(l) }

// Implier computes closures, implication, triviality and reduction on
// reused scratch. It is the package's single implementation of each:
// Implies, ComputeClosure, GFD.Trivial and Reduces are wrappers over a
// fresh Implier. A long-lived Implier allocates nothing per triviality
// test once warm, and memoises the embeddings of each (sub, super)
// pattern pair it has seen, so tests over many GFDs that share a few
// patterns enumerate each pair's embeddings once. The memo is keyed by
// pattern pointer, never by canonical code: embeddings depend on the
// variable numbering, which isomorphic patterns need not share. Patterns
// must not be mutated while an Implier may hold them. The zero value is
// ready to use; an Implier is not safe for concurrent use.
type Implier struct {
	cl     Closure
	rules  []rule
	embeds map[embedKey][][]int
}

type embedKey struct {
	sub, super *pattern.Pattern
	opts       pattern.EmbedOptions
}

// rule is a GFD of Σ fired through one embedding f of its pattern into
// the host pattern: its literals are translated with Remap(f) as they are
// read.
type rule struct {
	g *GFD
	f []int
}

// embeddings returns every embedding of sub into super under opts,
// enumerated once per pattern pair.
func (im *Implier) embeddings(sub, super *pattern.Pattern, opts pattern.EmbedOptions) [][]int {
	key := embedKey{sub, super, opts}
	if fs, ok := im.embeds[key]; ok {
		return fs
	}
	var fs [][]int
	pattern.Embeddings(sub, super, opts, func(f []int) bool {
		fs = append(fs, append([]int(nil), f...))
		return true
	})
	if im.embeds == nil {
		im.embeds = make(map[embedKey][][]int)
	}
	im.embeds[key] = fs
	return fs
}

// closure computes closure(Σ_Q, X) for host pattern q into im.cl: it seeds
// the closure with X, then repeatedly fires every GFD of sigma through
// every embedding of its pattern into q whenever the embedded premises
// hold, until fixpoint. GFDs of sigma not embedded in q have no
// embeddings and never fire.
func (im *Implier) closure(sigma []*GFD, q *pattern.Pattern, x []Literal) *Closure {
	cl := &im.cl
	cl.reset()
	for _, l := range x {
		cl.assert(l)
	}
	im.rules = im.rules[:0]
	var sub *pattern.Pattern // GFDs sharing a pattern tend to be adjacent in sigma
	var fs [][]int
	for _, g := range sigma {
		if g.Q != sub {
			sub, fs = g.Q, im.embeddings(g.Q, q, pattern.EmbedOptions{})
		}
		for _, f := range fs {
			im.rules = append(im.rules, rule{g: g, f: f})
		}
	}
	for changed := len(im.rules) > 0; changed && !cl.conflicting; {
		changed = false
		for _, r := range im.rules {
			ok := true
			for _, l := range r.g.X {
				if !cl.holds(l.Remap(r.f)) {
					ok = false
					break
				}
			}
			if ok && cl.assert(r.g.RHS.Remap(r.f)) {
				changed = true
			}
		}
	}
	return cl
}

// Implies reports Σ ⊨ φ by the characterisation of Section 3: closure(Σ_Q,
// X) is conflicting or contains φ's right-hand side (false only in the
// former case). The caller passes sigma without φ itself when testing
// redundancy.
func (im *Implier) Implies(sigma []*GFD, phi *GFD) bool {
	return im.closure(sigma, phi.Q, phi.X).holds(phi.RHS)
}

// Trivial reports whether X → rhs is trivial (Section 4.1): X cannot be
// satisfied (it equates one term with two distinct constants), or rhs
// already follows from X by transitivity of equality alone — that is, the
// empty set implies it. x is only read.
//
// Most candidates are answered without a closure. An X with no false and
// at most one constant literal tags at most one class with a constant,
// so its closure is never conflicting. It then entails neither false nor
// a literal with a term that no literal of X mentions, since the closure
// holds only the terms X mentions.
func (im *Implier) Trivial(x []Literal, rhs Literal) bool {
	if !mayConflict(x) {
		switch rhs.Kind {
		case LFalse:
			return false
		case LConst:
			if !mentions(x, rhs.X, rhs.A) {
				return false
			}
		case LVar:
			if !mentions(x, rhs.X, rhs.A) || !mentions(x, rhs.Y, rhs.B) {
				return false
			}
		}
	}
	return im.closure(nil, nil, x).holds(rhs)
}

// mayConflict reports whether x holds false or two constant literals,
// without which a closure of x alone is never conflicting.
func mayConflict(x []Literal) bool {
	consts := 0
	for _, l := range x {
		switch l.Kind {
		case LFalse:
			return true
		case LConst:
			consts++
		}
	}
	return consts >= 2
}

// mentions reports whether some literal of x has the term v.a.
func mentions(x []Literal, v int, a string) bool {
	for _, l := range x {
		switch l.Kind {
		case LConst:
			if l.X == v && l.A == a {
				return true
			}
		case LVar:
			if l.X == v && l.A == a || l.Y == v && l.B == a {
				return true
			}
		}
	}
	return false
}

// Reduces reports φ1 ≪ φ2 (see the package-level Reduces). An embedding
// renames variables only, so when some literal of X1 has no literal of X2
// with its kind, attributes (either order for x.A = y.B) and constant, no
// embedding maps X1 into X2 and none is looked up.
func (im *Implier) Reduces(g1, g2 *GFD) bool {
	for _, l := range g1.X {
		if !hasShape(g2.X, l) {
			return false
		}
	}
	for _, f := range im.embeddings(g1.Q, g2.Q, pattern.EmbedOptions{PivotPreserving: true}) {
		if reducesVia(g1, g2, f) {
			return true
		}
	}
	return false
}

// hasShape reports whether x holds a literal that l can be renamed into:
// the same kind, attributes and constant, with the attributes of a
// variable literal in either order.
func hasShape(x []Literal, l Literal) bool {
	for _, m := range x {
		if m.Kind == l.Kind && m.C == l.C &&
			(m.A == l.A && m.B == l.B || l.Kind == LVar && m.A == l.B && m.B == l.A) {
			return true
		}
	}
	return false
}

// ComputeClosure computes closure(Σ_Q, X) for host pattern q (see
// Implier); GFDs of sigma not embedded in q are skipped harmlessly.
func ComputeClosure(sigma []*GFD, q *pattern.Pattern, x []Literal) *Closure {
	return new(Implier).closure(sigma, q, x)
}

// Enforced computes enforced(Σ_Q) = closure(Σ_Q, ∅) for the pattern q.
func Enforced(sigma []*GFD, q *pattern.Pattern) *Closure {
	return ComputeClosure(sigma, q, nil)
}

// Implies reports Σ ⊨ φ (see Implier.Implies).
func Implies(sigma []*GFD, phi *GFD) bool {
	return new(Implier).Implies(sigma, phi)
}

// Satisfiable reports whether Σ has a model with at least one applicable
// GFD: per the algorithm of Theorem 1(a), it checks whether some GFD's
// pattern Q has a non-conflicting enforced(Σ_Q). The empty set is not
// satisfiable under the paper's definition (condition (b) requires an
// applicable GFD).
func Satisfiable(sigma []*GFD) bool {
	var im Implier
	for _, g := range sigma {
		if !im.closure(sigma, g.Q, nil).Conflicting() {
			return true
		}
	}
	return false
}

// MaxK returns the parameter k = max |x̄| over sigma (0 for empty sigma).
func MaxK(sigma []*GFD) int {
	k := 0
	for _, g := range sigma {
		if g.K() > k {
			k = g.K()
		}
	}
	return k
}

// KBounded reports whether every GFD in sigma has at most k variables.
func KBounded(sigma []*GFD, k int) bool {
	for _, g := range sigma {
		if g.K() > k {
			return false
		}
	}
	return true
}
