// Package core implements graph functional dependencies (GFDs) and their
// static analyses: the syntax Q[x̄](X → Y), the normal form with a single
// right-hand-side literal, trivial-GFD detection, the reduction order ≪ on
// GFDs (Section 4.1), and — via the closure characterisation of Section 3 —
// the satisfiability and implication analyses that Theorem 1 shows to be
// fixed-parameter tractable in the pattern size k.
//
// Everything in this package is purely syntactic/logical: no data graph is
// consulted. Evaluation of GFDs on graphs (matching, validation, support)
// lives in package eval.
package core

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/pattern"
)

// LiteralKind discriminates the three literal forms.
type LiteralKind uint8

const (
	// LConst is a constant literal x.A = c.
	LConst LiteralKind = iota
	// LVar is a variable literal x.A = y.B.
	LVar
	// LFalse is the Boolean constant false, the right-hand side of negative
	// GFDs. (The paper treats it as syntactic sugar for y.A=c ∧ y.A=d.)
	LFalse
)

// Literal is a literal of x̄: either x.A = c (LConst), x.A = y.B (LVar), or
// false (LFalse, only meaningful as a right-hand side).
type Literal struct {
	Kind LiteralKind
	X    int    // variable index of the left term
	A    string // attribute of the left term
	Y    int    // variable index of the right term (LVar)
	B    string // attribute of the right term (LVar)
	C    string // constant (LConst)
}

// Const returns the literal x.A = c.
func Const(x int, a, c string) Literal { return Literal{Kind: LConst, X: x, A: a, C: c} }

// Vars returns the literal x.A = y.B.
func Vars(x int, a string, y int, b string) Literal {
	return Literal{Kind: LVar, X: x, A: a, Y: y, B: b}
}

// False returns the Boolean-false literal.
func False() Literal { return Literal{Kind: LFalse} }

// String renders the literal: x0.A="c" with the constant Go-quoted,
// x0.A=x1.B, or false.
func (l Literal) String() string {
	var buf [64]byte
	return string(l.appendTo(buf[:0]))
}

// appendTo appends the literal's String to b.
func (l Literal) appendTo(b []byte) []byte {
	switch l.Kind {
	case LConst:
		b = appendTerm(b, l.X, l.A)
		return strconv.AppendQuote(append(b, '='), l.C)
	case LVar:
		return appendTerm(append(appendTerm(b, l.X, l.A), '='), l.Y, l.B)
	default:
		return append(b, "false"...)
	}
}

// appendTerm appends x<v>.<a>.
func appendTerm(b []byte, v int, a string) []byte {
	b = strconv.AppendInt(append(b, 'x'), int64(v), 10)
	return append(append(b, '.'), a...)
}

// normalised returns l with LVar sides ordered canonically so that
// x.A = y.B and y.B = x.A compare equal.
func (l Literal) normalised() Literal {
	if l.Kind == LVar && (l.Y < l.X || (l.Y == l.X && l.B < l.A)) {
		l.X, l.A, l.Y, l.B = l.Y, l.B, l.X, l.A
	}
	return l
}

// Equal reports semantic equality of literals (LVar symmetry respected).
func (l Literal) Equal(m Literal) bool { return l.normalised() == m.normalised() }

// Remap returns the literal with variables substituted through f
// (f[old] = new), e.g. to translate a literal along a pattern embedding.
func (l Literal) Remap(f []int) Literal {
	switch l.Kind {
	case LConst:
		l.X = f[l.X]
	case LVar:
		l.X, l.Y = f[l.X], f[l.Y]
	}
	return l
}

// GFD is a graph functional dependency Q[x̄](X → l) in normal form: the
// right-hand side is a single literal (Section 2.2), possibly LFalse for
// negative GFDs.
type GFD struct {
	Q   *pattern.Pattern
	X   []Literal
	RHS Literal
}

// New constructs a GFD. The X slice is retained.
func New(q *pattern.Pattern, x []Literal, rhs Literal) *GFD {
	return &GFD{Q: q, X: x, RHS: rhs}
}

// IsNegative reports whether the GFD's right-hand side is false. (The
// paper additionally requires X to be satisfiable for the GFD to count as
// negative; unsatisfiable-X GFDs are trivial and never emitted by
// discovery.)
func (g *GFD) IsNegative() bool { return g.RHS.Kind == LFalse }

// K returns |x̄|, the number of pattern variables — the parameter of the
// fixed-parameter analyses.
func (g *GFD) K() int { return g.Q.N() }

// Size returns the number of pattern edges.
func (g *GFD) Size() int { return g.Q.Size() }

// String renders the GFD.
func (g *GFD) String() string {
	xs := make([]string, len(g.X))
	for i, l := range g.X {
		xs[i] = l.String()
	}
	lhs := strings.Join(xs, " ∧ ")
	if lhs == "" {
		lhs = "∅"
	}
	return fmt.Sprintf("%s(%s → %s)", g.Q, lhs, g.RHS)
}

// Key returns a canonical identity string for de-duplication: pattern
// canonical code plus sorted literals. Two GFDs with the same Key are
// syntactically identical up to pattern isomorphism and literal order.
//
// Note the literals are rendered in the pattern's original variable
// numbering; for the small per-pattern literal sets of discovery this is a
// sound (never merges distinct GFDs) and effective de-duplication key.
func (g *GFD) Key() string {
	// The literals are rendered into one buffer and sorted as byte spans.
	var buf [256]byte
	var spanBuf [8][2]int
	lits, spans := buf[:0], spanBuf[:0]
	for _, l := range g.X {
		lo := len(lits)
		lits = l.normalised().appendTo(lits)
		spans = append(spans, [2]int{lo, len(lits)})
	}
	slices.SortFunc(spans, func(a, b [2]int) int { return bytes.Compare(lits[a[0]:a[1]], lits[b[0]:b[1]]) })
	code := g.Q.CanonicalCode()
	var out [512]byte
	b := append(append(out[:0], code...), '#')
	for i, sp := range spans {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, lits[sp[0]:sp[1]]...)
	}
	return string(g.RHS.normalised().appendTo(append(b, "=>"...)))
}

// ContainsLiteral reports whether X contains l (up to LVar symmetry).
func ContainsLiteral(x []Literal, l Literal) bool {
	for _, m := range x {
		if m.Equal(l) {
			return true
		}
	}
	return false
}

// Trivial reports whether the GFD is trivial (Section 4.1): X cannot be
// satisfied (it equates one term with two distinct constants), or the
// right-hand side already follows from X by transitivity of equality alone.
// Callers testing many candidates reuse an Implier instead.
func (g *GFD) Trivial() bool { return new(Implier).Trivial(g.X, g.RHS) }

// Reduces reports φ1 ≪ φ2 per Section 4.1: an isomorphism f from Q1 into a
// subgraph of Q2 that (a) preserves pivots, (b) maps X1 into X2 and l1 to
// l2, and (c) is either a strict pattern reduction or a strict literal-set
// reduction. Callers testing many pairs reuse an Implier instead.
func Reduces(g1, g2 *GFD) bool { return new(Implier).Reduces(g1, g2) }

// reducesVia reports whether the pivot-preserving embedding f of Q1 into
// Q2 witnesses φ1 ≪ φ2 (conditions (b) and (c) of Reduces).
func reducesVia(g1, g2 *GFD, f []int) bool {
	// (b) literals must map into X2 / onto l2.
	for _, l := range g1.X {
		if !ContainsLiteral(g2.X, l.Remap(f)) {
			return false
		}
	}
	if g1.RHS.Kind == LFalse || g2.RHS.Kind == LFalse {
		if g1.RHS.Kind != g2.RHS.Kind {
			return false
		}
	} else if !g1.RHS.Remap(f).Equal(g2.RHS) {
		return false
	}
	// (c) strictness: Q1 ≪ Q2 via f, or f(X1) ⊊ X2.
	return g1.Q.N() < g2.Q.N() || g1.Q.Size() < g2.Q.Size() ||
		labelsStrictlyUpgraded(g1.Q, g2.Q, f) || len(g1.X) < len(g2.X)
}

// labelsStrictlyUpgraded reports whether f maps some wildcard label of sub
// onto a concrete label of super (same node count and edge count assumed
// checked by the caller for the strict-structure cases).
func labelsStrictlyUpgraded(sub, super *pattern.Pattern, f []int) bool {
	for u, l := range sub.NodeLabels {
		if l == pattern.Wildcard && super.NodeLabels[f[u]] != pattern.Wildcard {
			return true
		}
	}
	for _, e := range sub.Edges {
		if e.Label != pattern.Wildcard {
			continue
		}
		// e maps to some super edge between f-images; if none of them is a
		// wildcard edge, the label was strictly upgraded.
		allConcrete := true
		for _, se := range super.Edges {
			if se.Src == f[e.Src] && se.Dst == f[e.Dst] && se.Label == pattern.Wildcard {
				allConcrete = false
				break
			}
		}
		if allConcrete {
			return true
		}
	}
	return false
}
