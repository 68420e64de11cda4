package core

import (
	"repro/internal/pattern"
)

// This file keeps the fixpoint that the compiled chase replaced, as the
// reference its answers must equal: a closure over string terms searched
// linearly, and a loop that fires every (GFD, embedding) rule whose
// premises hold until nothing changes.
//
// One change from the retired loop: asserting x.A = x.A on a term not yet
// mentioned counts as a change. The retired loop did not count it, so it
// could stop before firing a rule listed earlier whose premise was that
// x.A = x.A; its answer then depended on the order of Σ. The chase
// reaches the fixpoint whatever the order, and mined GFDs never hold such
// a literal.

// refTerm is one x.A of the reference closure with its union–find state;
// the constant tag is meaningful at class roots only.
type refTerm struct {
	v        int
	a        string
	parent   int
	rank     int
	constOf  string
	hasConst bool
}

// refClosure is the reference closure: it holds only the terms that an
// asserted literal mentions.
type refClosure struct {
	terms       []refTerm
	conflicting bool
}

func (c *refClosure) term(v int, a string) int {
	if t, ok := c.lookup(v, a); ok {
		return t
	}
	t := len(c.terms)
	c.terms = append(c.terms, refTerm{v: v, a: a, parent: t})
	return t
}

func (c *refClosure) lookup(v int, a string) (int, bool) {
	for t := range c.terms {
		if c.terms[t].v == v && c.terms[t].a == a {
			return t, true
		}
	}
	return 0, false
}

func (c *refClosure) find(t int) int {
	for c.terms[t].parent != t {
		t = c.terms[t].parent
	}
	return t
}

func (c *refClosure) union(a, b int) bool {
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

func (c *refClosure) setConst(t int, val string) bool {
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
func (c *refClosure) assert(l Literal) bool {
	switch l.Kind {
	case LConst:
		return c.setConst(c.term(l.X, l.A), l.C)
	case LVar:
		n := len(c.terms)
		return c.union(c.term(l.X, l.A), c.term(l.Y, l.B)) || len(c.terms) > n
	default: // LFalse
		changed := !c.conflicting
		c.conflicting = true
		return changed
	}
}

// holds reports whether the closure entails the literal.
func (c *refClosure) holds(l Literal) bool {
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

// closureRef computes closure(Σ_Q, X) for host pattern q (nil: no rule
// fires) by the retired fixpoint: it seeds the closure with X, then
// repeatedly fires every GFD of sigma through every embedding of its
// pattern into q whenever the embedded premises hold, until nothing
// changes.
func closureRef(sigma []*GFD, q *pattern.Pattern, x []Literal) *refClosure {
	cl := new(refClosure)
	for _, l := range x {
		cl.assert(l)
	}
	type rule struct {
		g *GFD
		f []int
	}
	var rules []rule
	for _, g := range sigma {
		if q == nil {
			break
		}
		pattern.Embeddings(g.Q, q, pattern.EmbedOptions{}, func(f []int) bool {
			rules = append(rules, rule{g, append([]int(nil), f...)})
			return true
		})
	}
	for changed := len(rules) > 0; changed && !cl.conflicting; {
		changed = false
		for _, r := range rules {
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

// impliesRef is Σ ⊨ φ by the reference closure.
func impliesRef(sigma []*GFD, phi *GFD) bool {
	return closureRef(sigma, phi.Q, phi.X).holds(phi.RHS)
}

// satisfiableRef is Satisfiable by the reference closure.
func satisfiableRef(sigma []*GFD) bool {
	for _, g := range sigma {
		if !closureRef(sigma, g.Q, nil).conflicting {
			return true
		}
	}
	return false
}
