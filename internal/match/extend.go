package match

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file is the extend kernel: the incremental join of one parent
// table with all of its children over a view list. It writes each child's
// index (IndexedExt: the parent rows each output row extends, plus the
// new variable's bindings) into reused scratch, and the caller gathers it
// into an exact-size table (gather) or copies it out to ship
// (ExtendIndexedBatch), so the local path, a fragment server and the
// local views of a merge run one enumeration. Parent tables arrive with
// the anchor column grouped, so one forward scan finds each run of equal
// anchors, the CSR lookup and label filter run once per run, and only the
// per-row injectivity scan stays innermost; concrete closing edges are
// grouped by their (source, destination) variables, and each view's
// edge-label signatures (graph.LabelSigs) rule out the probes that must
// come back empty. Output is byte-identical to the row-at-a-time
// reference in extend_ref_test.go.

// appendCandOK appends the candidates that survive the run-invariant
// filters — node label satisfies want (always, for a wildcard) and
// candidate ≠ anchor (the anchor column holds anchor on every row of the
// run, so that injectivity test does not depend on the row) — to dst.
// These are the checks the batching amortises: once per anchor run
// instead of once per parent row.
func appendCandOK(dst []graph.NodeID, g graph.View, cands []graph.NodeID, want graph.LabelID, anchor graph.NodeID) []graph.NodeID {
	if want == graph.NoLabel {
		for _, c := range cands {
			if c != anchor {
				dst = append(dst, c)
			}
		}
		return dst
	}
	for _, c := range cands {
		if c != anchor && g.NodeLabelID(c) == want {
			dst = append(dst, c)
		}
	}
	return dst
}

// viewBounds holds the edge bounds of a view list, indexed like it.
type viewBounds []graph.EdgeBounds

// allNodes is the bounds of a view that does not report any.
var allNodes = graph.EdgeBounds{SrcHi: ^graph.NodeID(0), DstHi: ^graph.NodeID(0)}

// skip reports whether view i holds no edge at node v in the given
// direction (out-edges of v if outgoing, else in-edges).
func (vb viewBounds) skip(i int, v graph.NodeID, outgoing bool) bool {
	if len(vb) == 0 {
		return false
	}
	lo, hi := span(vb[i], outgoing)
	return v < lo || v >= hi
}

// span returns b's source range if outgoing, else its destination range.
func span(b graph.EdgeBounds, outgoing bool) (lo, hi graph.NodeID) {
	if outgoing {
		return b.SrcLo, b.SrcHi
	}
	return b.DstLo, b.DstHi
}

// kernel is the reusable state of one extend call: the view list, the
// node ranges each view's edges touch, and the scratch of the indexes,
// the candidate gather and the closing groups. Kernels come from a pool,
// and a child's index lives in the scratch only until the caller has
// consumed it, so a call allocates none of it. A fragment holds the
// out-edges of its own source range only, so a call narrows the views to
// those that can meet a column's anchors (narrow) and rules out the rest
// per row with two compares (viewBounds.skip); a dropped or skipped probe
// would have returned nothing.
type kernel struct {
	views []graph.View
	// bounds is indexed like views (all nodes for a view reporting none);
	// empty — one view, or none reporting bounds — narrows nothing.
	bounds viewBounds
	// lv and lb are narrow's result, valid until its next call.
	lv []graph.View
	lb viewBounds
	// ranges[v] is the node range of the parent's column v, found by the
	// call's first narrow by v: once per batch, not per child.
	ranges  []colRange
	idx     IndexedExt         // the index of the child at hand, or of a merge
	cands   []graph.NodeID     // one anchor run's filtered candidates
	closing []closingChild     // the call's concrete closing children
	members []IndexedExt       // the index of each member of the group at hand
	sigs    []*graph.LabelSigs // the label signatures of the group's views
	cur     []int              // merge cursors, one per view
}

type colRange struct {
	lo, hi graph.NodeID
	ok     bool
}

// closingChild is a closing-edge child with a concrete label: child i of
// the call adds src --label--> dst between two bound variables.
type closingChild struct {
	i        int
	src, dst int
	label    graph.LabelID
}

var kernels = sync.Pool{New: func() any { return new(kernel) }}

// newKernel takes a kernel from the pool over views and resolves their
// edge bounds.
func newKernel(views []graph.View) *kernel {
	k := kernels.Get().(*kernel)
	k.views, k.bounds = views, k.bounds[:0]
	if len(views) < 2 {
		return k
	}
	for i, v := range views {
		if b, ok := v.(interface{ EdgeBounds() graph.EdgeBounds }); ok {
			for len(k.bounds) < len(views) {
				k.bounds = append(k.bounds, allNodes)
			}
			k.bounds[i] = b.EdgeBounds()
		}
	}
	return k
}

// release returns k to the pool; the indexes it wrote die with it.
func (k *kernel) release() {
	k.views = nil
	clear(k.lv[:cap(k.lv)])
	clear(k.sigs[:cap(k.sigs)])
	kernels.Put(k)
}

// reset empties an index, keeping its storage.
func (ext *IndexedExt) reset() {
	ext.ParentRows, ext.NewCol = ext.ParentRows[:0], ext.NewCol[:0]
}

// setTable forgets the column ranges of the previous parent table: the
// next narrows read t's.
func (k *kernel) setTable(t *Table) {
	k.ranges = k.ranges[:0]
	for range t.cols {
		k.ranges = append(k.ranges, colRange{})
	}
}

// narrow returns the views, with their bounds, whose range in the given
// direction (sources if outgoing, else destinations) meets the range of
// t's column v, in view order. The result is valid until the next call.
func (k *kernel) narrow(t *Table, v int, outgoing bool) ([]graph.View, viewBounds) {
	col := t.cols[v]
	if len(k.bounds) == 0 || len(col) == 0 {
		return k.views, k.bounds
	}
	rg := &k.ranges[v]
	if !rg.ok {
		lo, hi := col[0], col[0]
		for _, a := range col {
			lo, hi = min(lo, a), max(hi, a)
		}
		*rg = colRange{lo: lo, hi: hi, ok: true}
	}
	k.lv, k.lb = k.lv[:0], k.lb[:0]
	for i, b := range k.bounds {
		if lo, hi := span(b, outgoing); rg.hi >= lo && rg.lo < hi {
			k.lv, k.lb = append(k.lv, k.views[i]), append(k.lb, b)
		}
	}
	return k.lv, k.lb
}

// extend computes the index of t's join with each of children over k's
// views and hands it to emit with the child's position, once per child,
// as soon as it is complete. Every child adds one edge to t's pattern:
// between two bound variables, or to one new variable with index
// t.P.N(). An index aliases k's storage and is valid only during its
// emit call.
func (k *kernel) extend(t *Table, children []*pattern.Pattern, emit func(i int, ext IndexedExt)) {
	if t == nil {
		for i := range children {
			emit(i, IndexedExt{})
		}
		return
	}
	k.setTable(t)
	// Labels and node structure are shared by every view (one node store,
	// one symbol table), so a label resolves once against the first view
	// and holds for all of them.
	store := k.views[0]
	pn := t.P.N()
	k.closing = k.closing[:0]
	for i, child := range children {
		e := child.LastEdge()
		elabel, eok := resolveLabel(store, e.Label)
		k.idx.reset()
		switch {
		case child.N() == pn+1:
			if newLabel, nok := resolveLabel(store, child.NodeLabels[pn]); eok && nok {
				k.grow(t, e, elabel, newLabel, &k.idx)
			}
		case child.N() != pn:
			panic(fmt.Sprintf("match: extend: child has %d vars, parent %d", child.N(), pn))
		case !eok:
			// A label absent from the symbol table: nothing can match it.
		case elabel == graph.NoLabel:
			k.closeWildcard(t, e, &k.idx)
		default:
			k.closing = append(k.closing, closingChild{i: i, src: e.Src, dst: e.Dst, label: elabel})
			continue
		}
		emit(i, k.idx)
	}
	// Sorted by (source, destination, label), the concrete closing
	// children fall into groups, and members with the same label sit
	// together. Equal keys are equal children, so their order does not
	// matter.
	slices.SortFunc(k.closing, func(a, b closingChild) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.label, b.label))
	})
	for lo := 0; lo < len(k.closing); {
		hi := lo + 1
		for hi < len(k.closing) && k.closing[hi].src == k.closing[lo].src && k.closing[hi].dst == k.closing[lo].dst {
			hi++
		}
		group := k.closing[lo:hi]
		k.closeGroup(t, group)
		for j, c := range group {
			emit(c.i, k.members[j])
		}
		lo = hi
	}
}

// closeWildcard filters t's rows for a wildcard closing edge e. A row
// survives if any view holds an edge from its source to its destination;
// the witness may sit in any of the source's runs, and several views may
// hold one, so it stays row-at-a-time on HasEdgeID and keeps a row once.
func (k *kernel) closeWildcard(t *Table, e pattern.Edge, ext *IndexedExt) {
	srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
	views, vb := k.narrow(t, e.Src, true)
	for r := range srcCol {
		for i, v := range views {
			if vb.skip(i, srcCol[r], true) {
				continue
			}
			if v.HasEdgeID(srcCol[r], dstCol[r], graph.NoLabel) {
				ext.ParentRows = append(ext.ParentRows, uint32(r))
				break
			}
		}
	}
}

// closeGroup filters t's rows for every closing child of one group (same
// source and destination variables, concrete labels, sorted) into
// k.members, indexed like group. The source column is scanned once. Per
// run of equal sources and view, the view's label signatures pick the
// member labels worth a lookup: those whose bit is set both in the
// source's outgoing word and in some row's destination's incoming word.
// A view with no out-edge at the source has no bits there, so this also
// stands in for its bounds. Each picked label is looked up once (OutTo)
// and the run's rows are tested against its neighbours.
func (k *kernel) closeGroup(t *Table, group []closingChild) {
	srcCol, dstCol := t.cols[group[0].src], t.cols[group[0].dst]
	views, _ := k.narrow(t, group[0].src, true)
	k.sigs = k.sigs[:0]
	for _, v := range views {
		k.sigs = append(k.sigs, graph.LabelSigsFor(v))
	}
	var want uint64 // the bits of the group's labels
	for len(k.members) < len(group) {
		k.members = append(k.members, IndexedExt{})
	}
	for j, c := range group {
		k.members[j].reset()
		want |= graph.LabelBit(c.label)
	}
	for lo := 0; lo < len(srcCol); {
		src := srcCol[lo]
		hi := lo + 1
		for hi < len(srcCol) && srcCol[hi] == src {
			hi++
		}
		for i, v := range views {
			sig := k.sigs[i]
			probe := sig.Out(src) & want
			if probe == 0 {
				continue
			}
			var in uint64
			for r := lo; r < hi && in&probe != probe; r++ {
				in |= sig.In(dstCol[r])
			}
			if probe &= in; probe == 0 {
				continue
			}
			for m, c := range group {
				if (m == 0 || group[m-1].label != c.label) && probe&graph.LabelBit(c.label) != 0 {
					if ns := v.OutTo(src, c.label); len(ns) > 0 {
						k.keepRows(t, group, m, ns, sig, lo, hi)
					}
				}
			}
		}
		lo = hi
	}
}

// keepRows appends the rows in [lo, hi) whose destination is in ns to
// the index of group member m and of the later members with its label.
// A row whose destination has no incoming edge with the label's bit in
// the probed view (sig) is dropped without searching ns. Rows an earlier
// view already kept for this run (a vertex cut gives a source's
// out-edges to one view, other view sets may not) are merged, each once.
func (k *kernel) keepRows(t *Table, group []closingChild, m int, ns []graph.NodeID, sig *graph.LabelSigs, lo, hi int) {
	dstCol := t.cols[group[m].dst]
	bit := graph.LabelBit(group[m].label)
	for j := m; j < len(group) && group[j].label == group[m].label; j++ {
		ext := &k.members[j]
		n := len(ext.ParentRows)
		for r := lo; r < hi; r++ {
			if d := dstCol[r]; sig.In(d)&bit != 0 && graph.ContainsNode(ns, d) {
				ext.ParentRows = append(ext.ParentRows, uint32(r))
			}
		}
		if n > 0 && ext.ParentRows[n-1] >= uint32(lo) && len(ext.ParentRows) > n {
			for n > 0 && ext.ParentRows[n-1] >= uint32(lo) {
				n--
			}
			seg := ext.ParentRows[n:]
			slices.Sort(seg)
			ext.ParentRows = ext.ParentRows[:n+len(slices.Compact(seg))]
		}
	}
}

// grow writes the index of t's join with a new-variable child whose last
// edge e joins a bound variable (the anchor) to the new one, labelled
// elabel, with new-node label newLabel (graph.NoLabel for wildcards).
func (k *kernel) grow(t *Table, e pattern.Edge, elabel, newLabel graph.LabelID, ext *IndexedExt) {
	store := k.views[0]
	pn := len(t.cols)
	outgoing := e.Src != pn // true: bound -> new
	anchorVar := e.Src
	if !outgoing {
		anchorVar = e.Dst
	}
	anchorCol := t.cols[anchorVar]
	views, vb := k.narrow(t, anchorVar, outgoing)
	rows := len(anchorCol)
	cols := t.cols
	// emit1 is the per-row path of runs of length one (an ungrouped
	// anchor column): with nothing to amortise, a gather would be waste.
	emit1 := func(r int, cands []graph.NodeID) {
		for _, cand := range cands {
			if newLabel != graph.NoLabel && store.NodeLabelID(cand) != newLabel {
				continue
			}
			inj := true
			for v := 0; v < pn; v++ {
				if cols[v][r] == cand {
					inj = false // injectivity
					break
				}
			}
			if inj {
				ext.ParentRows = append(ext.ParentRows, uint32(r))
				ext.NewCol = append(ext.NewCol, cand)
			}
		}
	}
	for lo := 0; lo < rows; {
		anchor := anchorCol[lo]
		hi := lo + 1
		for hi < rows && anchorCol[hi] == anchor {
			hi++
		}
		if hi == lo+1 {
			for i, v := range views {
				if vb.skip(i, anchor, outgoing) {
					continue
				}
				if elabel != graph.NoLabel {
					if outgoing {
						emit1(lo, v.OutTo(anchor, elabel))
					} else {
						emit1(lo, v.InFrom(anchor, elabel))
					}
				} else if outgoing {
					rlo, rhi := v.OutRuns(anchor)
					for rr := rlo; rr < rhi; rr++ {
						emit1(lo, v.OutRunNodes(rr))
					}
				} else {
					rlo, rhi := v.InRuns(anchor)
					for rr := rlo; rr < rhi; rr++ {
						emit1(lo, v.InRunNodes(rr))
					}
				}
			}
			lo = hi
			continue
		}
		// The gather applies the run-invariant filters (node label,
		// candidate ≠ anchor) once for the whole run.
		k.cands = gatherCandidates(k.cands, views, vb, store, anchor, elabel, newLabel, outgoing)
		scratch := k.cands
		if len(scratch) == 0 {
			lo = hi
			continue
		}
		for r := lo; r < hi; r++ {
			// Per row only injectivity against the non-anchor columns
			// remains. Collisions are rare, so scan for one first: the
			// collision-free case copies the candidate set whole.
			collide := false
			for v := 0; v < pn && !collide; v++ {
				if v == anchorVar {
					continue
				}
				cv := cols[v][r]
				for _, cand := range scratch {
					if cand == cv {
						collide = true
						break
					}
				}
			}
			if !collide {
				for range scratch {
					ext.ParentRows = append(ext.ParentRows, uint32(r))
				}
				ext.NewCol = append(ext.NewCol, scratch...)
				continue
			}
			for _, cand := range scratch {
				inj := true
				for v := 0; v < pn; v++ {
					if v != anchorVar && cols[v][r] == cand {
						inj = false // injectivity
						break
					}
				}
				if inj {
					ext.ParentRows = append(ext.ParentRows, uint32(r))
					ext.NewCol = append(ext.NewCol, cand)
				}
			}
		}
		lo = hi
	}
}

// gatherCandidates collects the filtered candidate bindings of one anchor
// node from every view, concatenated in view order (the order the
// per-row path enumerates them in), reusing scratch's storage.
func gatherCandidates(scratch []graph.NodeID, views []graph.View, vb viewBounds, store graph.View,
	anchor graph.NodeID, elabel, newLabel graph.LabelID, outgoing bool) []graph.NodeID {
	scratch = scratch[:0]
	for i, v := range views {
		if vb.skip(i, anchor, outgoing) {
			continue
		}
		if elabel != graph.NoLabel {
			var cands []graph.NodeID
			if outgoing {
				cands = v.OutTo(anchor, elabel)
			} else {
				cands = v.InFrom(anchor, elabel)
			}
			scratch = appendCandOK(scratch, store, cands, newLabel, anchor)
			continue
		}
		if outgoing {
			lo, hi := v.OutRuns(anchor)
			for r := lo; r < hi; r++ {
				scratch = appendCandOK(scratch, store, v.OutRunNodes(r), newLabel, anchor)
			}
		} else {
			lo, hi := v.InRuns(anchor)
			for r := lo; r < hi; r++ {
				scratch = appendCandOK(scratch, store, v.InRunNodes(r), newLabel, anchor)
			}
		}
	}
	return scratch
}

// gather builds child's table from its index over t. One allocation
// holds every column at its exact length, and each column's capacity is
// clamped to its length, so appending to one column (a rebalance's
// AppendRows) moves it instead of overwriting the next.
func gather(t *Table, child *pattern.Pattern, ext IndexedExt) *Table {
	out := NewTable(child)
	rows := len(ext.ParentRows)
	if rows == 0 {
		return out
	}
	buf := make([]graph.NodeID, rows*len(out.cols))
	for v := range out.cols {
		col := buf[v*rows : (v+1)*rows : (v+1)*rows]
		if v < len(t.cols) {
			src := t.cols[v]
			for j, r := range ext.ParentRows {
				col[j] = src[r]
			}
		} else {
			copy(col, ext.NewCol)
		}
		out.cols[v] = col
	}
	return out
}

// extendRowsViews is the one-child form of ExtendRowsViewsBatch.
func extendRowsViews(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	return ExtendRowsViewsBatch(views, t, []*pattern.Pattern{child})[0]
}

// countExtend records one extend call and its output rows.
func countExtend(out *Table) *Table {
	mExtendCalls.Inc()
	mExtendRows.Add(int64(out.Len()))
	return out
}

// ExtendIndexedBatch computes one view's shares of the indexed join of t
// with each of children, indexed like children: the local form of
// BatchExtender, run by the fragment server, the failover and hedge
// paths, and the merge for local views standing next to remote ones.
// Each share is copied out of the kernel at its exact size; an empty
// list stays nil, so a new-variable share with no rows reads like a
// closing one on the wire, as it always has.
func ExtendIndexedBatch(g graph.View, t *Table, children []*pattern.Pattern) []IndexedExt {
	mExtendIndexed.Add(int64(len(children)))
	out := make([]IndexedExt, len(children))
	k := newKernel([]graph.View{g})
	defer k.release()
	k.extend(t, children, func(i int, ext IndexedExt) {
		out[i] = IndexedExt{ParentRows: exactCopy(ext.ParentRows), NewCol: exactCopy(ext.NewCol)}
	})
	return out
}

// exactCopy returns a copy of s with len == cap, or nil if s is empty.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}
