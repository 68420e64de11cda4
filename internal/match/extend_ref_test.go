package match

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file preserves the row-at-a-time extend kernel the batched kernel
// in extend.go replaced: one CSR lookup and one label filter per parent
// row, no run batching. It is the correctness oracle of the differential
// tests: the batched kernel must reproduce its output byte-for-byte.

// appendRow appends row r of src to t, over src's columns (t may have one
// extra trailing column, filled by the caller): the references' row
// builder, one append per cell.
func (t *Table) appendRow(src *Table, r int) {
	for v := range src.cols {
		t.cols[v] = append(t.cols[v], src.cols[v][r])
	}
}

// ExtendRowsRef is the row-at-a-time reference form of ExtendRows.
func ExtendRowsRef(g graph.View, t *Table, child *pattern.Pattern) *Table {
	return extendRowsViewsRef([]graph.View{g}, t, child)
}

// extendRowsViewsRef is the pre-batching extendRowsViews body, verbatim.
func extendRowsViewsRef(views []graph.View, t *Table, child *pattern.Pattern) *Table {
	out := NewTable(child)
	if t == nil {
		return out
	}
	store := views[0]
	parent := t.P
	e := child.LastEdge()
	elabel, eok := resolveLabel(store, e.Label)
	if !eok {
		return out
	}
	pn := parent.N()
	switch child.N() {
	case pn:
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		for r := range srcCol {
			for _, v := range views {
				if v.HasEdgeID(srcCol[r], dstCol[r], elabel) {
					out.appendRow(t, r)
					break
				}
			}
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
		extend := func(r int, cand graph.NodeID) {
			if !nodeLabelOK(store, cand, newLabel) {
				return
			}
			for v := 0; v < pn; v++ {
				if t.cols[v][r] == cand {
					return // injectivity
				}
			}
			out.appendRow(t, r)
			out.cols[nv] = append(out.cols[nv], cand)
		}
		anchorCol := t.cols[anchorVar]
		for r := range anchorCol {
			anchor := anchorCol[r]
			for _, v := range views {
				if elabel != graph.NoLabel {
					var cands []graph.NodeID
					if outgoing {
						cands = v.OutTo(anchor, elabel)
					} else {
						cands = v.InFrom(anchor, elabel)
					}
					for _, cand := range cands {
						extend(r, cand)
					}
					continue
				}
				if outgoing {
					lo, hi := v.OutRuns(anchor)
					for rr := lo; rr < hi; rr++ {
						for _, cand := range v.OutRunNodes(rr) {
							extend(r, cand)
						}
					}
				} else {
					lo, hi := v.InRuns(anchor)
					for rr := lo; rr < hi; rr++ {
						for _, cand := range v.InRunNodes(rr) {
							extend(r, cand)
						}
					}
				}
			}
		}
	default:
		panic(fmt.Sprintf("match: ExtendRowsRef: child has %d vars, parent %d", child.N(), pn))
	}
	return out
}

// extendIndexedRef is the pre-batching ExtendIndexed body, verbatim: the
// oracle for the batched single-view share.
func extendIndexedRef(g graph.View, t *Table, child *pattern.Pattern) IndexedExt {
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
	switch child.N() {
	case pn:
		srcCol, dstCol := t.cols[e.Src], t.cols[e.Dst]
		for r := range srcCol {
			if g.HasEdgeID(srcCol[r], dstCol[r], elabel) {
				ext.ParentRows = append(ext.ParentRows, uint32(r))
			}
		}
	case pn + 1:
		nv := pn
		newLabel, nok := resolveLabel(g, child.NodeLabels[nv])
		if !nok {
			return ext
		}
		outgoing := e.Src != nv
		anchorVar := e.Src
		if !outgoing {
			anchorVar = e.Dst
		}
		extend := func(r int, cand graph.NodeID) {
			if !nodeLabelOK(g, cand, newLabel) {
				return
			}
			for v := 0; v < pn; v++ {
				if t.cols[v][r] == cand {
					return // injectivity
				}
			}
			ext.ParentRows = append(ext.ParentRows, uint32(r))
			ext.NewCol = append(ext.NewCol, cand)
		}
		anchorCol := t.cols[anchorVar]
		for r := range anchorCol {
			anchor := anchorCol[r]
			if elabel != graph.NoLabel {
				var cands []graph.NodeID
				if outgoing {
					cands = g.OutTo(anchor, elabel)
				} else {
					cands = g.InFrom(anchor, elabel)
				}
				for _, cand := range cands {
					extend(r, cand)
				}
				continue
			}
			if outgoing {
				lo, hi := g.OutRuns(anchor)
				for rr := lo; rr < hi; rr++ {
					for _, cand := range g.OutRunNodes(rr) {
						extend(r, cand)
					}
				}
			} else {
				lo, hi := g.InRuns(anchor)
				for rr := lo; rr < hi; rr++ {
					for _, cand := range g.InRunNodes(rr) {
						extend(r, cand)
					}
				}
			}
		}
	default:
		panic("match: extendIndexedRef: child must add exactly one edge")
	}
	return ext
}
