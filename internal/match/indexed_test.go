package match

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
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
// fragment set). With overlap, every third edge is also visible through
// the next view, so a closing edge can have two witnesses.
func splitViews(g *graph.Graph, k int, overlap bool) []graph.View {
	parts := make([][]graph.IEdge, k)
	i := 0
	graph.ViewEdges(g, func(e graph.IEdge) bool {
		parts[i%k] = append(parts[i%k], e)
		if overlap && k > 1 && i%3 == 0 {
			parts[(i+1)%k] = append(parts[(i+1)%k], e)
		}
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
// labels mixed in. Every other batch adds a closing group (closingGroup).
// The parent is a single edge or a two-edge path, and one time in eight
// its table is empty.
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
	if r.Intn(2) == 0 {
		children = append(children, closingGroup(r, parent)...)
		r.Shuffle(len(children), func(i, j int) { children[i], children[j] = children[j], children[i] })
	}
	return base, children
}

// closingGroup returns closing children of p on one variable pair, the
// members one closing group of the kernel must keep apart: a concrete
// label twice, another concrete label, a wildcard, and a label absent
// from the graph's symbol table. When p has three variables, a child
// with the same source and label but that other destination joins them:
// it belongs to another group.
func closingGroup(r *rand.Rand, p *pattern.Pattern) []*pattern.Pattern {
	labels := []string{"a", "b", "c"}
	n := p.N()
	src := r.Intn(n)
	dst := (src + 1 + r.Intn(n-1)) % n
	l := labels[r.Intn(3)]
	out := []*pattern.Pattern{
		p.ExtendClosingEdge(src, dst, l),
		p.ExtendClosingEdge(src, dst, labels[r.Intn(3)]),
		p.ExtendClosingEdge(src, dst, pattern.Wildcard),
		p.ExtendClosingEdge(src, dst, l),
		p.ExtendClosingEdge(src, dst, "absent"),
	}
	if n == 3 {
		out = append(out, p.ExtendClosingEdge(src, 3-src-dst, l))
	}
	return out
}

// mappedViews spills each view to an in-memory snapshot and opens it back
// as a store.MappedGraph: the fragment views of a spilled ParDis run.
func mappedViews(t testing.TB, views []graph.View) []graph.View {
	out := make([]graph.View, len(views))
	for i, v := range views {
		var buf bytes.Buffer
		if err := store.Write(&buf, v.(store.Source)); err != nil {
			t.Fatal(err)
		}
		m, err := store.OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// exactSize reports whether every column of tab is gathered at its exact
// size (len == cap), and whether appending a row to tab, as a rebalance
// appends rows to a worker's part, leaves its other cells unchanged.
func exactSize(tab *Table) bool {
	for _, col := range tab.cols {
		if len(col) != cap(col) {
			return false
		}
	}
	n := tab.Len()
	if n == 0 {
		return true
	}
	before := make([][]graph.NodeID, len(tab.cols))
	for v, col := range tab.cols {
		before[v] = slices.Clone(col)
	}
	// grown shares tab's column storage, as a part shares its gather.
	grown := &Table{P: tab.P, cols: slices.Clone(tab.cols)}
	grown.AppendRows(&Table{P: tab.P, cols: before}, n-1, n)
	for v := range tab.cols {
		if !slices.Equal(tab.cols[v], before[v]) || !slices.Equal(grown.cols[v][:n], before[v]) ||
			grown.cols[v][n] != before[v][n-1] {
			return false
		}
	}
	return true
}

// TestIndexedMergeDifferential locks the batched kernel and the
// index-merge path (taken when any view is a BatchExtender) to the
// row-at-a-time reference: for random graphs, random batches of children
// sharing one parent, random view counts — heap SubCSRs or spilled
// MappedGraphs, disjoint or overlapping — and a random subset of views
// shimmed through BatchExtender, every child's output table must be
// byte-identical — same rows in the same order — to the reference,
// whether the child goes through the batch or alone, and gathered at its
// exact size. This is the property that makes remote mining reproduce
// the golden bytes: the transport can only move a share, never reorder
// it.
func TestIndexedMergeDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(8))
		base, children := randomBatch(r, g)
		k := 1 + r.Intn(4)
		plain := splitViews(g, k, r.Intn(3) == 0)
		if r.Intn(2) == 0 {
			plain = mappedViews(t, plain)
		}

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
			want := extendRowsViewsRef(plain, base, child)
			if !sameTable(want, merged[i]) || !sameTable(want, local[i]) ||
				!sameTable(want, ExtendRowsViews(plain, base, child)) ||
				!sameTable(want, ExtendRowsViews(shimmed, base, child)) ||
				!exactSize(merged[i]) || !exactSize(local[i]) {
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
	k := newKernel(nil)
	defer k.release()
	merge := func(child *pattern.Pattern, exts []IndexedExt) *Table {
		return gather(parent, child, k.mergeShares(parent, child, exts))
	}
	closing := merge(p.ExtendClosingEdge(1, 0, "y"),
		[]IndexedExt{{ParentRows: []uint32{1, 7}}, {ParentRows: []uint32{2}}})
	if closing.Len() != 2 || closing.At(0, 0) != 1 || closing.At(1, 0) != 2 {
		t.Fatalf("closing merge kept %d rows, want parent rows 1 and 2", closing.Len())
	}
	grown := merge(p.ExtendNewNode(0, "z", "c", true),
		[]IndexedExt{{ParentRows: []uint32{0, 9}, NewCol: []graph.NodeID{10, 11}}})
	if grown.Len() != 1 || grown.At(0, 0) != 0 || grown.At(0, 2) != 10 {
		t.Fatalf("new-node merge kept %d rows, want parent row 0 bound to node 10", grown.Len())
	}
}

// TestIndexedMergeNilTable: the merge path must mirror the local kernel's
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
