package match

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file is the distributed form of the incremental join: the per-view
// work of ExtendRowsViews factored into an exchangeable value. A view's
// share of the join Q(t) ⋈ e(F_v) is fully described by which parent rows
// it extends (and, for a new variable, with which node) — so a remote
// fragment server can compute its share against its own mmap'd snapshot
// and ship back two flat uint32 columns, and the coordinator can merge
// the shares of all views back into exactly the table the single-process
// path builds. One parent table with all of its children is the RPC unit;
// no per-edge lookup ever crosses the wire.

// FromCols builds a table over p directly from parallel columns, sharing
// their storage: the wire decode path for a row-table batch received by a
// fragment server. Column count must equal p.N() and all columns must
// have equal length.
func FromCols(p *pattern.Pattern, cols [][]graph.NodeID) (*Table, error) {
	if len(cols) != p.N() {
		return nil, fmt.Errorf("match: FromCols: %d columns for a %d-variable pattern", len(cols), p.N())
	}
	for v := 1; v < len(cols); v++ {
		if len(cols[v]) != len(cols[0]) {
			return nil, fmt.Errorf("match: FromCols: column %d has %d rows, column 0 has %d", v, len(cols[v]), len(cols[0]))
		}
	}
	return &Table{P: p, cols: cols}, nil
}

// IndexedExt is one view's share of an indexed incremental join: the
// parent rows it extends, in ascending order, and — for a new-variable
// child — the parallel column of new-node bindings. For a closing-edge
// child ParentRows lists the surviving rows (unique, ascending) and
// NewCol is nil. Candidates for one parent row appear in the view's
// enumeration order, so merging per-view shares in view order reproduces
// the exact row order of the local kernel.
type IndexedExt struct {
	ParentRows []uint32
	NewCol     []graph.NodeID
}

// BatchExtender is a view that computes its own shares of the incremental
// join — a remote fragment does it server-side against its snapshot and
// ships the results back as flat columns. One call carries every child
// of one parent table, so the parent crosses the wire once however many
// children extend it; the returned shares are indexed like children.
// ExtendRowsViews and ExtendRowsViewsBatch detect it and switch to the
// index-merge path, which is byte-identical to the local kernel
// (locked by TestIndexedMergeDifferential).
type BatchExtender interface {
	ExtendIndexed(t *Table, children []*pattern.Pattern) []IndexedExt
}

// hasBatchExtender reports whether any view computes its own shares.
func hasBatchExtender(views []graph.View) bool {
	for _, v := range views {
		if _, ok := v.(BatchExtender); ok {
			return true
		}
	}
	return false
}

// ExtendRowsViewsBatch extends one parent table by each of children over
// the same views: out[i] is byte-identical to ExtendRowsViews(views, t,
// children[i]). Local views run the kernel once for all children and
// gather each child's table from its index; a BatchExtender view computes
// the shares of all children in one call.
func ExtendRowsViewsBatch(views []graph.View, t *Table, children []*pattern.Pattern) []*Table {
	if len(views) == 0 {
		panic("match: ExtendRowsViewsBatch: no views")
	}
	if hasBatchExtender(views) {
		return extendRowsMerge(views, t, children)
	}
	out := make([]*Table, len(children))
	k := newKernel(views)
	defer k.release()
	k.extend(t, children, func(i int, ext IndexedExt) {
		out[i] = countExtend(gather(t, children[i], ext))
	})
	return out
}

// extendRowsMerge is the index-merge form of ExtendRowsViewsBatch, taken
// when any view computes its own shares (BatchExtender). Each view
// produces one IndexedExt per child — remotely or via the local kernel —
// and each child's shares are merged per parent row in view order,
// reproducing the local kernel's row order exactly: for every parent
// row, view 0's extensions precede view 1's, and a closing-edge row is
// kept once no matter how many views witness the edge.
func extendRowsMerge(views []graph.View, t *Table, children []*pattern.Pattern) []*Table {
	out := make([]*Table, len(children))
	if t == nil {
		for i, child := range children {
			out[i] = countExtend(NewTable(child))
		}
		return out
	}
	shares := make([][]IndexedExt, len(views)) // [view][child]
	// Self-computing views are network-bound (remote fragments): fan their
	// batches out concurrently so the round trips pipeline over each
	// fragment's multiplexed connection, and compute the local shares
	// serially in the meantime — local compute stays sequential so the
	// cluster engine's per-worker busy accounting is undistorted. The
	// merge below is order-insensitive to completion: shares is indexed by
	// view, so the output row order is identical however the batches land.
	var pipelined sync.WaitGroup
	for i, v := range views {
		if be, ok := v.(BatchExtender); ok {
			pipelined.Add(1)
			go func(i int, be BatchExtender) {
				defer pipelined.Done()
				shares[i] = be.ExtendIndexed(t, children)
			}(i, be)
		}
	}
	for i, v := range views {
		if _, ok := v.(BatchExtender); !ok {
			shares[i] = ExtendIndexedBatch(v, t, children)
		}
	}
	pipelined.Wait()
	k := newKernel(nil)
	defer k.release()
	exts := make([]IndexedExt, len(views))
	for c, child := range children {
		for i := range shares {
			exts[i] = shares[i][c]
		}
		out[c] = countExtend(gather(t, child, k.mergeShares(t, child, exts)))
	}
	return out
}

// mergeShares merges one child's per-view shares (exts, indexed by view)
// into one index in k's storage, valid until k's next use. It visits only
// the parent rows some share lists: each step takes the least row under
// the cursors, then advances every view's cursor past it. Rows past the
// parent's end, which no well-formed share lists, end the merge.
func (k *kernel) mergeShares(t *Table, child *pattern.Pattern, exts []IndexedExt) IndexedExt {
	idx := &k.idx
	idx.reset()
	k.cur = slices.Grow(k.cur[:0], len(exts))[:len(exts)]
	clear(k.cur)
	cur := k.cur
	closing := child.N() == t.P.N()
	for {
		r := -1
		for i := range exts {
			if pr := exts[i].ParentRows; cur[i] < len(pr) && (r < 0 || int(pr[cur[i]]) < r) {
				r = int(pr[cur[i]])
			}
		}
		if r < 0 || r >= t.Len() {
			return *idx
		}
		if closing {
			// A row survives once, however many views' shares list it.
			idx.ParentRows = append(idx.ParentRows, uint32(r))
		}
		for i := range exts {
			pr := exts[i].ParentRows
			for cur[i] < len(pr) && int(pr[cur[i]]) == r {
				if !closing {
					idx.ParentRows = append(idx.ParentRows, uint32(r))
					idx.NewCol = append(idx.NewCol, exts[i].NewCol[cur[i]])
				}
				cur[i]++
			}
		}
	}
}
