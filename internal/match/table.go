package match

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Table materialises the matches of a pattern in columnar form: one flat
// []graph.NodeID column per pattern variable, with row r of the table being
// (cols[0][r], ..., cols[n-1][r]). Tables are the unit of state that
// discovery carries between levels of the generation tree, and — sliced
// into per-fragment ownership — the unit of state ParDis workers exchange.
//
// The columnar layout is what makes table work allocation-free per row:
// extension appends node IDs to columns (no per-row slice), label filters
// and pivot-set counting are single-column scans, and partitioning a table
// across workers is a zero-copy column slice (Slice, Split). Callers that
// genuinely need a row materialise one through Row/RowInto.
type Table struct {
	P    *pattern.Pattern
	cols [][]graph.NodeID
}

// NewTable returns an empty table for p, with one (nil) column per
// variable.
func NewTable(p *pattern.Pattern) *Table {
	return &Table{P: p, cols: make([][]graph.NodeID, p.N())}
}

// FromRows builds a columnar table from row-major matches. It is the
// bridge from enumeration-style producers (and tests) into the columnar
// layout; hot paths build columns directly.
func FromRows(p *pattern.Pattern, rows []Match) *Table {
	t := NewTable(p)
	n := p.N()
	for v := 0; v < n; v++ {
		col := make([]graph.NodeID, len(rows))
		for r, row := range rows {
			col[r] = row[v]
		}
		t.cols[v] = col
	}
	return t
}

// Len returns the number of rows. A nil *Table reads as empty, like the
// nil row slices of the row-major era.
func (t *Table) Len() int {
	if t == nil || len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// NumVars returns the number of variables (columns).
func (t *Table) NumVars() int { return len(t.cols) }

// Col returns the column of variable v: Col(v)[r] = h_r(x_v). Shared
// read-only storage; callers must not mutate it. Nil-tolerant.
func (t *Table) Col(v int) []graph.NodeID {
	if t == nil {
		return nil
	}
	return t.cols[v]
}

// At returns the node bound to variable v in row r.
func (t *Table) At(r, v int) graph.NodeID { return t.cols[v][r] }

// RowInto materialises row r into buf (reused when cap allows) and returns
// it. This is the row-view accessor for callers that genuinely need
// row-major access; column scans are preferred on hot paths.
func (t *Table) RowInto(buf Match, r int) Match {
	n := len(t.cols)
	if cap(buf) < n {
		buf = make(Match, n)
	}
	buf = buf[:n]
	for v := 0; v < n; v++ {
		buf[v] = t.cols[v][r]
	}
	return buf
}

// Row returns a freshly allocated copy of row r.
func (t *Table) Row(r int) Match { return t.RowInto(nil, r) }

// AppendRows appends rows [lo, hi) of src (same arity) to t, copying
// column data. This is the materialised data movement of a rebalance: the
// receiver owns the copied rows.
func (t *Table) AppendRows(src *Table, lo, hi int) {
	for v := range t.cols {
		t.cols[v] = append(t.cols[v], src.cols[v][lo:hi]...)
	}
}

// Slice returns the row range [lo, hi) as a table sharing t's column
// storage — no rows are copied. The slice is capacity-clamped, so appending
// to either table never clobbers the other.
func (t *Table) Slice(lo, hi int) *Table {
	out := &Table{P: t.P, cols: make([][]graph.NodeID, len(t.cols))}
	for v := range t.cols {
		out.cols[v] = t.cols[v][lo:hi:hi]
	}
	return out
}

// Split partitions the table at the given ascending row offsets into
// len(cuts)+1 consecutive zero-copy slices: Split(c1, ..., ck) returns
// [0,c1), [c1,c2), ..., [ck,Len). This is how a table is divided into
// per-fragment ownership without copying rows — ParDis ships column
// slices, not row objects.
func (t *Table) Split(cuts ...int) []*Table {
	out := make([]*Table, 0, len(cuts)+1)
	lo := 0
	for _, c := range cuts {
		out = append(out, t.Slice(lo, c))
		lo = c
	}
	return append(out, t.Slice(lo, t.Len()))
}

// resolveLabel maps a pattern label to the view's interned ID. ok=false
// means a concrete label absent from the view's symbol table: nothing can
// match it.
func resolveLabel(v graph.View, lbl string) (id graph.LabelID, ok bool) {
	if lbl == pattern.Wildcard {
		return graph.NoLabel, true
	}
	return v.LookupLabel(lbl)
}

// nodeLabelOK reports L(v) ⪯ want for an interned pattern label.
func nodeLabelOK(g graph.View, v graph.NodeID, want graph.LabelID) bool {
	return want == graph.NoLabel || g.NodeLabelID(v) == want
}

// NewSingleNodeTable materialises the matches of a one-variable pattern.
// The single column is ascending by node ID, so ownership ranges map to
// Split offsets by binary search.
func NewSingleNodeTable(g graph.View, p *pattern.Pattern) *Table {
	t := NewTable(p)
	label := p.NodeLabels[0]
	if label == pattern.Wildcard {
		col := make([]graph.NodeID, g.NumNodes())
		for v := range col {
			col[v] = graph.NodeID(v)
		}
		t.cols[0] = col
	} else if l, ok := g.LookupLabel(label); ok {
		if vs := g.NodesByLabelID(l); len(vs) > 0 {
			t.cols[0] = append([]graph.NodeID(nil), vs...)
		}
	}
	return t
}

// EdgeMatches materialises the matches of the single-edge pattern p =
// (x_src --l--> x_dst) among the given edges; this is e(F_s) of Section
// 6.2: the matches of a single-edge pattern inside one fragment. edges ==
// nil means every edge visible through g.
func EdgeMatches(g graph.View, p *pattern.Pattern, edges []graph.Edge) *Table {
	if p.N() != 2 || p.Size() != 1 {
		panic(fmt.Sprintf("match: EdgeMatches wants a single-edge pattern, got %v", p))
	}
	t := NewTable(p)
	pe := p.Edges[0]
	elabel, eok := resolveLabel(g, pe.Label)
	srcLabel, sok := resolveLabel(g, p.NodeLabels[pe.Src])
	dstLabel, dok := resolveLabel(g, p.NodeLabels[pe.Dst])
	if !eok || !sok || !dok {
		return t
	}
	emit := func(s, d graph.NodeID) {
		if s == d {
			return // injectivity
		}
		if !nodeLabelOK(g, d, dstLabel) {
			return
		}
		t.cols[pe.Src] = append(t.cols[pe.Src], s)
		t.cols[pe.Dst] = append(t.cols[pe.Dst], d)
	}
	if edges == nil {
		for v := 0; v < g.NumNodes(); v++ {
			s := graph.NodeID(v)
			if !nodeLabelOK(g, s, srcLabel) {
				continue
			}
			if elabel != graph.NoLabel {
				for _, d := range g.OutTo(s, elabel) {
					emit(s, d)
				}
				continue
			}
			lo, hi := g.OutRuns(s)
			for r := lo; r < hi; r++ {
				for _, d := range g.OutRunNodes(r) {
					emit(s, d)
				}
			}
		}
		return t
	}
	for _, e := range edges {
		if elabel != graph.NoLabel {
			if id, ok := g.LookupLabel(e.Label); !ok || id != elabel {
				continue
			}
		}
		if nodeLabelOK(g, e.Src, srcLabel) {
			emit(e.Src, e.Dst)
		}
	}
	return t
}

// ExtendRows computes the incremental join Q(t) ⋈ e(G): it extends every
// match of t to matches of child, where child is t's pattern plus exactly
// one new edge (child.LastEdge()), possibly with one new variable. Child's
// first t.P.N() variables must agree with t's pattern (same labels); the
// new variable, if any, has index t.P.N().
//
// The input table is never mutated. Labels are resolved to interned IDs
// once per call, the kernel of extend.go writes the output as an index
// of parent rows (amortising CSR lookups and label filters over runs of
// equal-anchor rows), and the output's columns are gathered from it at
// their exact size, so no per-row slice is ever allocated.
func ExtendRows(g graph.View, t *Table, child *pattern.Pattern) *Table {
	return extendRowsViews([]graph.View{g}, t, child)
}

// ExtendRowsViews is the distributed form of ExtendRows: the candidate
// edges come from several edge-disjoint views over one shared node store
// (a worker's own fragment plus the received e(F_t) of every other
// fragment, per Section 6.2). Because each graph edge is visible through
// exactly one view, the output is row-for-row the multiset ExtendRows
// would produce against the union graph — only the within-table row order
// differs (rows are emitted per parent row in view order). A closing edge
// keeps a row if any view holds a qualifying edge, so wildcard closing
// edges never duplicate rows. ExtendRowsViewsBatch is the same join for
// several children of one parent table.
func ExtendRowsViews(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	if len(views) == 0 {
		panic("match: ExtendRowsViews: no views")
	}
	return extendRowsViews(views, t, child)
}

// RelabelRows filters a table down to a node-label variant of the same
// structure: variant must differ from t.P only in node labels, and only by
// making them more specific (wildcard -> concrete). Used when discovery
// derives a concrete-labelled pattern's table from its wildcard parent
// without re-matching. The filter is a per-column label scan: each
// newly-concrete column is scanned once against its interned label, and
// surviving rows are gathered into fresh exact-size columns.
func RelabelRows(g graph.View, t *Table, variant *pattern.Pattern) *Table {
	out := NewTable(variant)
	if t == nil {
		return out
	}
	n := t.Len()
	keep := bitset.New(n)
	keep.Fill(n)
	for v, l := range variant.NodeLabels {
		want, ok := resolveLabel(g, l)
		if !ok {
			return out // concrete label absent from the graph: nothing survives
		}
		if want == graph.NoLabel {
			continue
		}
		col := t.cols[v]
		for r := 0; r < n; r++ {
			if g.NodeLabelID(col[r]) != want {
				keep.Clear(r)
			}
		}
	}
	rows := make([]uint32, 0, keep.Count())
	keep.ForEach(func(r int) { rows = append(rows, uint32(r)) })
	return gather(t, variant, IndexedExt{ParentRows: rows})
}

// PivotCol returns the pivot column: PivotCol()[r] = h_r(z). Shared
// read-only storage. Nil-tolerant.
func (t *Table) PivotCol() []graph.NodeID {
	if t == nil {
		return nil
	}
	return t.cols[t.P.Pivot]
}

// PivotSet returns the distinct pivot images of the rows, i.e. Q(G, z)
// restricted to this table.
func (t *Table) PivotSet() map[graph.NodeID]struct{} {
	col := t.PivotCol()
	s := make(map[graph.NodeID]struct{}, len(col))
	for _, v := range col {
		s[v] = struct{}{}
	}
	return s
}

// Support returns the number of distinct pivot images in the table. It is
// a bitset scan of the pivot column: one pass finds the ID range, a second
// counts first occurrences — no per-pivot map entries. When the pivots are
// sparse over a wide ID range (zeroing the bitset would dominate), it
// falls back to a map sized by the row count.
func (t *Table) Support() int {
	col := t.PivotCol()
	if len(col) == 0 {
		return 0
	}
	minID, maxID := col[0], col[0]
	for _, v := range col {
		if v < minID {
			minID = v
		}
		if v > maxID {
			maxID = v
		}
	}
	span := int(maxID-minID) + 1
	if span > 64*len(col) {
		seen := make(map[graph.NodeID]struct{}, len(col))
		for _, v := range col {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	seen := bitset.New(span)
	n := 0
	for _, v := range col {
		if i := int(v - minID); !seen.Get(i) {
			seen.Set(i)
			n++
		}
	}
	return n
}
