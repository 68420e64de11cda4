// Package eval gives GFDs their semantics on data graphs (Section 2.2 of
// Fan et al., SIGMOD 2018): literal satisfaction under the schemaless rule,
// validation G ⊨ φ with violation reporting, and the support machinery of
// Section 4.2 — pattern support supp(Q,G) = |Q(G,z)|, correlation ρ(φ,G),
// GFD support supp(φ,G) = |Q(G,Xl,z)|, and the base-derived support of
// negative GFDs.
//
// The schemaless rule: a match lacking an attribute mentioned on the
// left-hand side satisfies X → Y vacuously (the node is simply not required
// to carry the attribute); an attribute mentioned on the right-hand side
// must exist for Y to be satisfied.
package eval

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
)

// CompiledLiteral is a literal resolved once against a graph's interned
// attribute plane: the attribute names are bound to their AttrColumns and
// the constant to its ValueID, so per-row evaluation is an integer column
// read with no map traffic and no string comparison. A literal mentioning
// an attribute or constant absent from the graph compiles to a literal
// that never holds (the columns are empty / the ValueID is NoValue), which
// is exactly the schemaless semantics.
type CompiledLiteral struct {
	kind core.LiteralKind
	x, y int
	a, b graph.AttrColumn
	c    graph.ValueID
}

// CompileLiteral resolves l against v's attribute plane. Compilation is
// cheap (two symbol-table lookups); pools compile each literal once and
// evaluate it over every row.
func CompileLiteral(v graph.View, l core.Literal) CompiledLiteral {
	return CompileLiteralCols(v, l, func(attr string) graph.AttrColumn {
		if aid, ok := v.LookupAttr(attr); ok {
			return v.AttrColumn(aid)
		}
		return graph.AttrColumn{}
	})
}

// CompileLiteralCols is CompileLiteral with the attribute columns supplied
// by col, which must return the column of attr over v's node store (the
// zero column when no node carries it). Discovery passes columns it has
// projected to the dense layout, so every row read is a direct index.
func CompileLiteralCols(v graph.View, l core.Literal, col func(attr string) graph.AttrColumn) CompiledLiteral {
	cl := CompiledLiteral{kind: l.Kind, x: l.X, y: l.Y, c: graph.NoValue}
	switch l.Kind {
	case core.LConst:
		cl.a = col(l.A)
		if val, ok := v.LookupValue(l.C); ok {
			cl.c = val
		}
	case core.LVar:
		cl.a, cl.b = col(l.A), col(l.B)
	}
	return cl
}

// Holds reports whether the bound nodes of match m satisfy the literal.
func (cl CompiledLiteral) Holds(m match.Match) bool {
	switch cl.kind {
	case core.LConst:
		return cl.c != graph.NoValue && cl.a.ValueAt(m[cl.x]) == cl.c
	case core.LVar:
		va := cl.a.ValueAt(m[cl.x])
		return va != graph.NoValue && va == cl.b.ValueAt(m[cl.y])
	default:
		return false
	}
}

// SatRows calls mark(r) for every row of the columnar table t satisfying
// the literal. Dense attribute columns take a branch-light direct-indexed
// scan; sparse ones fall back to per-row binary searches over the carrying
// nodes.
func (cl CompiledLiteral) SatRows(t *match.Table, mark func(r int)) {
	switch cl.kind {
	case core.LConst:
		want := cl.c
		if want == graph.NoValue {
			return // constant absent from the graph: no row can satisfy it
		}
		xs := t.Col(cl.x)
		if d := cl.a.Dense(); d != nil {
			for r, v := range xs {
				if d[v] == want {
					mark(r)
				}
			}
			return
		}
		for r, v := range xs {
			if cl.a.ValueAt(v) == want {
				mark(r)
			}
		}
	case core.LVar:
		cx, cy := t.Col(cl.x), t.Col(cl.y)
		if da, db := cl.a.Dense(), cl.b.Dense(); da != nil && db != nil {
			for r := range cx {
				if va := da[cx[r]]; va != graph.NoValue && va == db[cy[r]] {
					mark(r)
				}
			}
			return
		}
		for r := range cx {
			va := cl.a.ValueAt(cx[r])
			if va != graph.NoValue && va == cl.b.ValueAt(cy[r]) {
				mark(r)
			}
		}
	}
}

// LiteralHolds reports whether match m satisfies literal l on g: the
// mentioned attributes exist and the equality holds. LFalse never holds.
// One-shot string-API form of CompiledLiteral.Holds.
func LiteralHolds(g *graph.Graph, m match.Match, l core.Literal) bool {
	return CompileLiteral(g, l).Holds(m)
}

// SatRows calls mark(r) for every row of the columnar table t whose match
// satisfies l. It is the column-scan form of LiteralHolds: a constant
// literal reads one attribute column, a variable literal two, so a
// satisfaction bitset never materialises a row — and since literals
// compile to (AttrID, ValueID) form, the scan compares interned integers,
// never strings. It takes any graph.View; literals read node attributes
// only, which fragment views share with their base graph.
func SatRows(g graph.View, t *match.Table, l core.Literal, mark func(r int)) {
	CompileLiteral(g, l).SatRows(t, mark)
}

// AllHold reports whether m satisfies every literal in ls.
func AllHold(g *graph.Graph, m match.Match, ls []core.Literal) bool {
	for _, l := range ls {
		if !LiteralHolds(g, m, l) {
			return false
		}
	}
	return true
}

// MatchSatisfies reports h(x̄) ⊨ X → l: if m satisfies all of X it must
// satisfy the right-hand side (which for negative GFDs never holds, so any
// X-satisfying match is a violation).
func MatchSatisfies(g *graph.Graph, m match.Match, phi *core.GFD) bool {
	if !AllHold(g, m, phi.X) {
		return true
	}
	if phi.RHS.Kind == core.LFalse {
		return false
	}
	return LiteralHolds(g, m, phi.RHS)
}

// Validate reports G ⊨ φ: every match of φ's pattern satisfies X → l.
func Validate(g *graph.Graph, phi *core.GFD) bool {
	ok := true
	match.PlanFor(g, phi.Q).Enumerate(func(m match.Match) bool {
		if !MatchSatisfies(g, m, phi) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// ValidateAll reports G ⊨ Σ and, when false, the index of the first
// violated GFD.
func ValidateAll(g *graph.Graph, sigma []*core.GFD) (bool, int) {
	for i, phi := range sigma {
		if !Validate(g, phi) {
			return false, i
		}
	}
	return true, -1
}

// Violations collects up to limit violating matches of φ in g (limit <= 0
// means all). Each returned match is an independent copy.
func Violations(g *graph.Graph, phi *core.GFD, limit int) []match.Match {
	var out []match.Match
	match.PlanFor(g, phi.Q).Enumerate(func(m match.Match) bool {
		if !MatchSatisfies(g, m, phi) {
			out = append(out, m.Clone())
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	})
	return out
}

// ViolatingNodes returns the set of graph nodes contained in violations of
// any GFD of sigma — the V^GFD of the paper's error-detection accuracy
// metric (Exp-5).
func ViolatingNodes(g *graph.Graph, sigma []*core.GFD) map[graph.NodeID]struct{} {
	bad := make(map[graph.NodeID]struct{})
	for _, phi := range sigma {
		match.PlanFor(g, phi.Q).Enumerate(func(m match.Match) bool {
			if !MatchSatisfies(g, m, phi) {
				for _, v := range m {
					bad[v] = struct{}{}
				}
			}
			return true
		})
	}
	return bad
}

// PatternSupport returns supp(Q, G) = |Q(G, z)| for φ's pattern.
func PatternSupport(g *graph.Graph, phi *core.GFD) int {
	return match.PlanFor(g, phi.Q).Support()
}

// SupportDetail carries the support decomposition of Section 4.2.
type SupportDetail struct {
	// PatternSupport is supp(Q, G) = |Q(G, z)|.
	PatternSupport int
	// Support is supp(φ, G) = |Q(G, Xl, z)| for positive GFDs, and the
	// base-derived support for negative ones.
	Support int
	// Correlation is ρ(φ, G) = Support / PatternSupport (0 when the
	// pattern has no match).
	Correlation float64
}

// Supp computes supp(φ, G). For a positive GFD this is the number of
// distinct pivot nodes v with a match pivoted at v satisfying both X and
// the right-hand side. For a negative GFD it is the base-derived support:
// see NegativeSupport.
func Supp(g *graph.Graph, phi *core.GFD) int {
	if phi.RHS.Kind == core.LFalse {
		return NegativeSupport(g, phi)
	}
	pivots := make(map[graph.NodeID]struct{})
	match.PlanFor(g, phi.Q).Enumerate(func(m match.Match) bool {
		if AllHold(g, m, phi.X) && LiteralHolds(g, m, phi.RHS) {
			pivots[m[phi.Q.Pivot]] = struct{}{}
		}
		return true
	})
	return len(pivots)
}

// Detail computes the full support decomposition of φ on g.
func Detail(g *graph.Graph, phi *core.GFD) SupportDetail {
	d := SupportDetail{
		PatternSupport: PatternSupport(g, phi),
		Support:        Supp(g, phi),
	}
	if d.PatternSupport > 0 {
		d.Correlation = float64(d.Support) / float64(d.PatternSupport)
	}
	return d
}

// ConditionSupport returns |Q(G, X, z)|: the number of distinct pivots with
// a match satisfying all of X (right-hand side ignored). NHSpawn checks
// this is zero before emitting a negative GFD.
func ConditionSupport(g *graph.Graph, phi *core.GFD) int {
	pivots := make(map[graph.NodeID]struct{})
	match.PlanFor(g, phi.Q).Enumerate(func(m match.Match) bool {
		if AllHold(g, m, phi.X) {
			pivots[m[phi.Q.Pivot]] = struct{}{}
		}
		return true
	})
	return len(pivots)
}

// NegativeSupport computes supp(φ, G) for a negative GFD per Section 4.2:
// the maximum support over its bases.
//
//   - X = ∅ (case (a), "illegal structure"): bases are the connected
//     pivot-preserving patterns obtained by removing one edge of Q; the
//     support is the maximum supp(Q′, G) over them.
//   - X ≠ ∅ (case (b)): bases are obtained by removing one literal l′ from
//     X; the support of a base is |Q(G, X∖{l′}, z)|, an upper bound on the
//     support of any positive base GFD Q[x̄](X∖{l′} → l). Discovery records
//     the exact base GFD alongside each mined negative; this standalone
//     evaluator uses the bound.
func NegativeSupport(g *graph.Graph, phi *core.GFD) int {
	best := 0
	if len(phi.X) == 0 {
		for _, q := range phi.Q.EdgeReductions() {
			// Edge reductions are freshly allocated each call; an uncached
			// compile keeps them out of the per-graph plan cache.
			if s := match.Compile(g, q).Support(); s > best {
				best = s
			}
		}
		return best
	}
	for drop := range phi.X {
		reduced := make([]core.Literal, 0, len(phi.X)-1)
		for i, l := range phi.X {
			if i != drop {
				reduced = append(reduced, l)
			}
		}
		base := core.New(phi.Q, reduced, core.False())
		if s := ConditionSupport(g, base); s > best {
			best = s
		}
	}
	return best
}

// Frequent reports supp(φ, G) ≥ σ.
func Frequent(g *graph.Graph, phi *core.GFD, sigma int) bool {
	return Supp(g, phi) >= sigma
}
