package match

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file is the batched extend kernel: the hot inner loop of the
// incremental join restructured around runs of equal-pivot rows. Parent
// tables arrive with the anchor column grouped (extension emits rows per
// parent row in order, so equal anchors sit adjacent), which makes the
// batching sort-free: one forward scan finds each maximal run, the CSR
// lookup and node-label filter run once per run into a reusable scratch
// buffer, and only the (short) per-row injectivity scan remains in the
// innermost loop. Output is byte-identical to the row-at-a-time reference
// in extend_ref_test.go — the label filter commutes with the injectivity
// filter, and candidates stay in view order then CSR enumeration order —
// which TestBatchedExtendDifferential locks.

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

// kernelViews is the view list of kernel calls with the node ranges each
// view's edges touch (graph.EdgeBounds). A fragment holds the out-edges
// of its own source range only, and a worker's part of a table anchors
// mostly in or near its own range, so probing every fragment for every
// row made a worker's per-row cost linear in the fragment count. A call
// instead narrows the views once to those that can meet its anchors
// (narrow), and rules out the rest per row with two compares
// (viewBounds.skip). A dropped or skipped probe would have returned
// nothing, so the output is unchanged.
type kernelViews struct {
	views []graph.View
	// bounds is indexed like views; a view that does not report bounds
	// spans every node. nil — one view, or none reporting bounds —
	// narrows nothing.
	bounds viewBounds
	// lv and lb are narrow's scratch, reused across calls.
	lv []graph.View
	lb viewBounds
}

// viewBounds holds the edge bounds of a view list, indexed like it.
type viewBounds []graph.EdgeBounds

// allNodes is the bounds of a view that does not report any.
var allNodes = graph.EdgeBounds{SrcHi: ^graph.NodeID(0), DstHi: ^graph.NodeID(0)}

// newKernelViews resolves the edge bounds of views.
func newKernelViews(views []graph.View) kernelViews {
	kv := kernelViews{views: views}
	if len(views) < 2 {
		return kv
	}
	for i, v := range views {
		if b, ok := v.(interface{ EdgeBounds() graph.EdgeBounds }); ok {
			if kv.bounds == nil {
				kv.bounds = make(viewBounds, len(views))
				for j := range kv.bounds {
					kv.bounds[j] = allNodes
				}
			}
			kv.bounds[i] = b.EdgeBounds()
		}
	}
	return kv
}

// narrow returns the views, with their bounds, whose range in the given
// direction (sources if outgoing, else destinations) meets the range of
// the anchor column col, in view order. The result is valid until the
// next call.
func (kv *kernelViews) narrow(col []graph.NodeID, outgoing bool) ([]graph.View, viewBounds) {
	if kv.bounds == nil || len(col) == 0 {
		return kv.views, kv.bounds
	}
	amin, amax := col[0], col[0]
	for _, a := range col {
		amin, amax = min(amin, a), max(amax, a)
	}
	kv.lv, kv.lb = kv.lv[:0], kv.lb[:0]
	for i, b := range kv.bounds {
		if lo, hi := span(b, outgoing); amax >= lo && amin < hi {
			kv.lv, kv.lb = append(kv.lv, kv.views[i]), append(kv.lb, b)
		}
	}
	return kv.lv, kv.lb
}

// skip reports whether view i holds no edge at node v in the given
// direction (out-edges of v if outgoing, else in-edges).
func (vb viewBounds) skip(i int, v graph.NodeID, outgoing bool) bool {
	if vb == nil {
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

// gatherCandidates collects the filtered candidate bindings of one anchor
// node from every view, concatenated in view order (the order the fused
// loop enumerates them in), reusing scratch's storage.
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

// appendRepeat appends n copies of v to dst: the bulk row-value emission
// of the collision-free fast path.
func appendRepeat[T any](dst []T, v T, n int) []T {
	for ; n > 0; n-- {
		dst = append(dst, v)
	}
	return dst
}

func extendRowsViews(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	// A view that computes its own share of the join (a remote fragment)
	// switches the call to the index-merge path as a one-child batch;
	// local views in the same mix run the identical per-view computation
	// in-process and the merge reproduces the kernel's row order exactly.
	if hasBatchExtender(views) {
		return extendRowsMerge(views, t, []*pattern.Pattern{child})[0]
	}
	kv := newKernelViews(views)
	return countExtend(extendRowsViewsKernel(&kv, t, child))
}

// countExtend records one extend call and its output rows.
func countExtend(out *Table) *Table {
	mExtendCalls.Inc()
	mExtendRows.Add(int64(out.Len()))
	return out
}

func extendRowsViewsKernel(kv *kernelViews, t *Table, child *pattern.Pattern) *Table {
	out := NewTable(child)
	if t == nil {
		return out
	}
	// Labels and node structure are shared by every view (one node store,
	// one symbol table), so the new edge's label resolves once against the
	// first view and holds for all of them.
	store := kv.views[0]
	parent := t.P
	e := child.LastEdge()
	elabel, eok := resolveLabel(store, e.Label)
	if !eok {
		return out
	}
	pn := parent.N()
	switch child.N() {
	case pn:
		// Closing edge between two bound variables: filter rows. A row
		// survives if any view holds the edge (each concrete edge lives in
		// exactly one view; a wildcard label may be witnessed by several,
		// hence the boolean any-view test rather than a per-view append).
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		views, vb := kv.narrow(srcCol, true)
		if elabel == graph.NoLabel {
			// Wildcard closing edge: the witness may sit in any of the
			// source's runs, so stay row-at-a-time on HasEdgeID.
			for r := range srcCol {
				for i, v := range views {
					if vb.skip(i, srcCol[r], true) {
						continue
					}
					if v.HasEdgeID(srcCol[r], dstCol[r], elabel) {
						out.appendRow(t, r)
						break
					}
				}
			}
			return out
		}
		// Concrete label: resolve each view's adjacency run once per run of
		// equal sources; the per-row work is one binary search per view. A
		// run whose source has no such out-edge in any view keeps no row,
		// so its rows are not visited.
		neigh := make([][]graph.NodeID, len(views))
		for lo := 0; lo < len(srcCol); {
			src := srcCol[lo]
			hi := lo + 1
			for hi < len(srcCol) && srcCol[hi] == src {
				hi++
			}
			found := false
			for i, v := range views {
				neigh[i] = nil
				if !vb.skip(i, src, true) {
					neigh[i] = v.OutTo(src, elabel)
					found = found || len(neigh[i]) > 0
				}
			}
			if !found {
				lo = hi
				continue
			}
			for r := lo; r < hi; r++ {
				for _, ns := range neigh {
					if graph.ContainsNode(ns, dstCol[r]) {
						out.appendRow(t, r)
						break
					}
				}
			}
			lo = hi
		}
	case pn + 1:
		nv := pn
		newLabel, nok := resolveLabel(store, child.NodeLabels[nv])
		if !nok {
			return out
		}
		outgoing := e.Src != nv // true: bound -> new
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		anchorCol := t.cols[anchorVar]
		views, vb := kv.narrow(anchorCol, outgoing)
		rows := len(anchorCol)
		cols := t.cols[:pn]
		// emit1 is the unbatched per-row path: candidates straight off the
		// CSR slice, label and injectivity checks inline, no materialisation.
		// Runs of length one (an ungrouped anchor column) take it — there is
		// nothing to amortise, so the gather would be pure overhead.
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
				if !inj {
					continue
				}
				out.appendRow(t, r)
				out.cols[nv] = append(out.cols[nv], cand)
			}
		}
		var scratch []graph.NodeID
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
			scratch = gatherCandidates(scratch, views, vb, store, anchor, elabel, newLabel, outgoing)
			if len(scratch) == 0 {
				lo = hi
				continue
			}
			m := len(scratch)
			for r := lo; r < hi; r++ {
				// Per row only injectivity against the non-anchor columns
				// remains. Collisions are rare, so scan for one first: the
				// collision-free case bulk-copies the candidate set and
				// repeats the row values column-wise — the same rows in the
				// same order as per-candidate emission, minus its per-element
				// bookkeeping.
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
					for v := 0; v < pn; v++ {
						out.cols[v] = appendRepeat(out.cols[v], cols[v][r], m)
					}
					out.cols[nv] = append(out.cols[nv], scratch...)
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
					if !inj {
						continue
					}
					out.appendRow(t, r)
					out.cols[nv] = append(out.cols[nv], cand)
				}
			}
			lo = hi
		}
	default:
		panic(fmt.Sprintf("match: ExtendRows: child has %d vars, parent %d", child.N(), pn))
	}
	return out
}

// ExtendIndexedBatch computes one view's shares of the indexed join of t
// with each of children locally, indexed like children: the local form
// of BatchExtender, run by the fragment server, the failover and hedge
// paths, and the merge for local views standing next to remote ones.
func ExtendIndexedBatch(g graph.View, t *Table, children []*pattern.Pattern) []IndexedExt {
	exts := make([]IndexedExt, len(children))
	for i, child := range children {
		exts[i] = ExtendIndexed(g, t, child)
	}
	return exts
}

// ExtendIndexed computes one view's share of the indexed join locally:
// the implementation behind BatchExtender. The fragment server runs
// exactly this against its own snapshot; the merge path runs it for local
// views standing next to remote ones. It is the single-view form of the
// batched kernel above, and its candidate enumeration mirrors
// extendRowsViews clause for clause — any divergence would break the
// byte-identical-merge contract.
func ExtendIndexed(g graph.View, t *Table, child *pattern.Pattern) IndexedExt {
	mExtendIndexed.Inc()
	var ext IndexedExt
	if t == nil {
		return ext
	}
	parent := t.P
	e := child.LastEdge()
	elabel, eok := resolveLabel(g, e.Label)
	if !eok {
		return ext
	}
	pn := parent.N()
	views := [1]graph.View{g}
	switch child.N() {
	case pn:
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		if elabel == graph.NoLabel {
			for r := range srcCol {
				if g.HasEdgeID(srcCol[r], dstCol[r], elabel) {
					ext.ParentRows = append(ext.ParentRows, uint32(r))
				}
			}
			return ext
		}
		for lo := 0; lo < len(srcCol); {
			src := srcCol[lo]
			hi := lo + 1
			for hi < len(srcCol) && srcCol[hi] == src {
				hi++
			}
			ns := g.OutTo(src, elabel)
			if len(ns) > 0 {
				for r := lo; r < hi; r++ {
					if graph.ContainsNode(ns, dstCol[r]) {
						ext.ParentRows = append(ext.ParentRows, uint32(r))
					}
				}
			}
			lo = hi
		}
	case pn + 1:
		newLabel, nok := resolveLabel(g, child.NodeLabels[pn])
		if !nok {
			return ext
		}
		outgoing := e.Src != pn
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		anchorCol := t.cols[anchorVar]
		rows := len(anchorCol)
		cols := t.cols[:pn]
		emit1 := func(r int, cands []graph.NodeID) {
			for _, cand := range cands {
				if newLabel != graph.NoLabel && g.NodeLabelID(cand) != newLabel {
					continue
				}
				inj := true
				for v := 0; v < pn; v++ {
					if cols[v][r] == cand {
						inj = false // injectivity
						break
					}
				}
				if !inj {
					continue
				}
				ext.ParentRows = append(ext.ParentRows, uint32(r))
				ext.NewCol = append(ext.NewCol, cand)
			}
		}
		var scratch []graph.NodeID
		for lo := 0; lo < rows; {
			anchor := anchorCol[lo]
			hi := lo + 1
			for hi < rows && anchorCol[hi] == anchor {
				hi++
			}
			if hi == lo+1 {
				if elabel != graph.NoLabel {
					if outgoing {
						emit1(lo, g.OutTo(anchor, elabel))
					} else {
						emit1(lo, g.InFrom(anchor, elabel))
					}
				} else if outgoing {
					rlo, rhi := g.OutRuns(anchor)
					for rr := rlo; rr < rhi; rr++ {
						emit1(lo, g.OutRunNodes(rr))
					}
				} else {
					rlo, rhi := g.InRuns(anchor)
					for rr := rlo; rr < rhi; rr++ {
						emit1(lo, g.InRunNodes(rr))
					}
				}
				lo = hi
				continue
			}
			scratch = gatherCandidates(scratch, views[:], nil, g, anchor, elabel, newLabel, outgoing)
			if len(scratch) == 0 {
				lo = hi
				continue
			}
			m := len(scratch)
			for r := lo; r < hi; r++ {
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
					ext.ParentRows = appendRepeat(ext.ParentRows, uint32(r), m)
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
					if !inj {
						continue
					}
					ext.ParentRows = append(ext.ParentRows, uint32(r))
					ext.NewCol = append(ext.NewCol, cand)
				}
			}
			lo = hi
		}
	default:
		panic("match: ExtendIndexed: child must add exactly one edge")
	}
	return ext
}
