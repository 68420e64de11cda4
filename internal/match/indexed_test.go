package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// batchShim wraps a local view behind the BatchExtender interface, making
// ExtendRowsViews take the index-merge path exactly as it does for a
// remote fragment — but with the share computed in-process, so the merge
// logic is tested in isolation from any transport.
type batchShim struct {
	graph.View
}

func (s batchShim) ExtendIndexed(t *Table, children []*pattern.Pattern) []IndexedExt {
	return ExtendIndexedBatch(s.View, t, children)
}

// splitViews partitions g's edges round-robin into k edge-disjoint SubCSR
// views (every edge visible through exactly one view, as in a ParDis
// fragment set).
func splitViews(g *graph.Graph, k int) []graph.View {
	parts := make([][]graph.IEdge, k)
	i := 0
	graph.ViewEdges(g, func(e graph.IEdge) bool {
		parts[i%k] = append(parts[i%k], e)
		i++
		return true
	})
	views := make([]graph.View, k)
	for w := range parts {
		views[w] = graph.NewSubCSR(g, parts[w])
	}
	return views
}

// sameTable asserts byte-identical tables: same length and the same cell
// in every (row, var) position — row ORDER matters, unlike sameMatchSet.
func sameTable(a, b *Table) bool {
	if a.Len() != b.Len() || a.NumVars() != b.NumVars() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for v := 0; v < a.NumVars(); v++ {
			if a.At(i, v) != b.At(i, v) {
				return false
			}
		}
	}
	return true
}

// randomBatch builds a parent table over g and 1–8 children of its
// pattern, the shape of one parent group in a ParDis level: new-node
// children in both directions and closing edges, wildcard node and edge
// labels mixed in. The parent is a single edge or a two-edge path, and
// one time in eight its table is empty.
func randomBatch(r *rand.Rand, g *graph.Graph) (*Table, []*pattern.Pattern) {
	labels := []string{"a", "b", "c", pattern.Wildcard}
	parent, child := randomParentChild(r)
	base := EdgeMatches(g, parent, nil)
	if child.N() > parent.N() && r.Intn(2) == 0 {
		parent, base = child, ExtendRows(g, base, child)
	}
	if r.Intn(8) == 0 {
		base = NewTable(parent)
	}
	children := make([]*pattern.Pattern, 1+r.Intn(8))
	for i := range children {
		n := parent.N()
		if r.Intn(2) == 0 {
			children[i] = parent.ExtendNewNode(r.Intn(n), labels[r.Intn(4)], labels[r.Intn(4)], r.Intn(2) == 0)
		} else {
			src := r.Intn(n)
			children[i] = parent.ExtendClosingEdge(src, (src+1+r.Intn(n-1))%n, labels[r.Intn(4)])
		}
	}
	return base, children
}

// TestIndexedMergeDifferential locks the index-merge path (taken when any
// view is a BatchExtender) to the fused local loop: for random graphs,
// random batches of children sharing one parent, random view counts and
// a random subset of views shimmed through BatchExtender, every child's
// output table must be byte-identical — same rows in the same order — to
// the all-local per-child call, whether the child goes through the batch
// or alone. This is the property that makes remote mining reproduce the
// golden bytes: the transport can only move a share, never reorder it.
func TestIndexedMergeDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(8))
		base, children := randomBatch(r, g)
		k := 1 + r.Intn(4)
		plain := splitViews(g, k)

		shimmed := make([]graph.View, k)
		anyShim := false
		for i, v := range plain {
			if r.Intn(2) == 0 {
				shimmed[i] = batchShim{v}
				anyShim = true
			} else {
				shimmed[i] = v
			}
		}
		if !anyShim {
			shimmed[0] = batchShim{plain[0]}
		}

		merged := ExtendRowsViewsBatch(shimmed, base, children)
		local := ExtendRowsViewsBatch(plain, base, children)
		if len(merged) != len(children) || len(local) != len(children) {
			return false
		}
		for i, child := range children {
			want := ExtendRowsViews(plain, base, child)
			if !sameTable(want, merged[i]) || !sameTable(want, local[i]) ||
				!sameTable(want, ExtendRowsViews(shimmed, base, child)) {
				t.Logf("seed %d: child %d of %d (%v) diverged", seed, i, len(children), child)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSharesStopsAtParentEnd: a share that lists a row past the
// parent's end, which a well-formed share never does but a peer's bytes
// may, ends the merge instead of indexing past the table.
func TestMergeSharesStopsAtParentEnd(t *testing.T) {
	p := pattern.SingleEdge("a", "x", "b")
	parent, err := FromCols(p, [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	closing := mergeShares(parent, p.ExtendClosingEdge(1, 0, "y"),
		[]IndexedExt{{ParentRows: []uint32{1, 7}}, {ParentRows: []uint32{2}}}, make([]int, 2))
	if closing.Len() != 2 || closing.At(0, 0) != 1 || closing.At(1, 0) != 2 {
		t.Fatalf("closing merge kept %d rows, want parent rows 1 and 2", closing.Len())
	}
	grown := mergeShares(parent, p.ExtendNewNode(0, "z", "c", true),
		[]IndexedExt{{ParentRows: []uint32{0, 9}, NewCol: []graph.NodeID{10, 11}}}, make([]int, 1))
	if grown.Len() != 1 || grown.At(0, 0) != 0 || grown.At(0, 2) != 10 {
		t.Fatalf("new-node merge kept %d rows, want parent row 0 bound to node 10", grown.Len())
	}
}

// TestIndexedMergeNilTable: the merge path must mirror the fused loop's
// nil-table contract (empty output table, correct arity), alone and in a
// batch.
func TestIndexedMergeNilTable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 6)
	_, children := randomBatch(r, g)
	views := []graph.View{batchShim{g}}
	check := func(out *Table, child *pattern.Pattern) {
		t.Helper()
		if out.Len() != 0 || out.NumVars() != child.N() {
			t.Fatalf("nil-table extend: len=%d vars=%d, want 0 and %d", out.Len(), out.NumVars(), child.N())
		}
	}
	for i, out := range ExtendRowsViewsBatch(views, nil, children) {
		check(out, children[i])
	}
	check(ExtendRowsViews(views, nil, children[0]), children[0])
}
