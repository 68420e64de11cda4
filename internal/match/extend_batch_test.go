package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// The batched kernel's contract is byte-identity with the row-at-a-time
// reference, not just set equality: ParDis merges per-fragment shares by
// row order, and the golden mining outputs are locked byte-for-byte. These
// tests therefore compare column slices exactly.

func tablesIdentical(a, b *Table) bool {
	if len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.cols {
		if len(a.cols[i]) != len(b.cols[i]) {
			return false
		}
		for j := range a.cols[i] {
			if a.cols[i][j] != b.cols[i][j] {
				return false
			}
		}
	}
	return true
}

// randomChild draws a random one-edge extension of a random single-edge
// parent: new-variable at either endpoint, either direction, or a closing
// edge, with wildcard and concrete labels mixed — every clause of the
// kernel.
func randomChild(r *rand.Rand) (*pattern.Pattern, *pattern.Pattern) {
	labels := []string{"a", "b", "c", pattern.Wildcard}
	p1 := pattern.SingleEdge(labels[r.Intn(4)], labels[r.Intn(4)], labels[r.Intn(4)])
	var child *pattern.Pattern
	if r.Intn(3) < 2 {
		child = p1.ExtendNewNode(r.Intn(2), labels[r.Intn(4)], labels[r.Intn(4)], r.Intn(2) == 0)
	} else {
		child = p1.ExtendClosingEdge(1, 0, labels[r.Intn(4)])
	}
	return p1, child
}

// TestBatchedExtendDifferential: ExtendRows (batched) vs ExtendRowsRef
// (row-at-a-time) must agree byte-for-byte on random graphs and patterns.
func TestBatchedExtendDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(10))
		p1, child := randomChild(r)
		t1 := EdgeMatches(g, p1, nil)
		return tablesIdentical(ExtendRows(g, t1, child), ExtendRowsRef(g, t1, child))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedExtendSkewed runs the same differential on a power-law graph
// whose hub runs actually take the batched (non-singleton) path, including
// the collision-free bulk emission.
func TestBatchedExtendSkewed(t *testing.T) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 800, Edges: 4000, Seed: 5, Skew: 1.1})
	st := graph.NewStats(g)
	extended := 0
	for _, tr := range st.FrequentTriples(3) {
		for _, newLabel := range []string{tr.DstLabel, pattern.Wildcard} {
			for _, at := range []int{0, 1} {
				parent := pattern.SingleEdge(pattern.Wildcard, tr.EdgeLabel, pattern.Wildcard)
				child := parent.ExtendNewNode(at, tr.EdgeLabel, newLabel, true)
				t1 := EdgeMatches(g, parent, nil)
				got, want := ExtendRows(g, t1, child), ExtendRowsRef(g, t1, child)
				if !tablesIdentical(got, want) {
					t.Fatalf("batched diverges on skewed graph (triple %+v, newLabel %q, at %d): %d vs %d rows",
						tr, newLabel, at, got.Len(), want.Len())
				}
				extended += got.Len()
			}
			// Closing edge over the 2-edge child, concrete and wildcard.
			parent := pattern.SingleEdge(pattern.Wildcard, tr.EdgeLabel, pattern.Wildcard)
			child := parent.ExtendNewNode(0, tr.EdgeLabel, newLabel, true)
			t2 := ExtendRows(g, ExtendRows(g, EdgeMatches(g, parent, nil), child), child)
			closing := child.ExtendClosingEdge(1, 2, tr.EdgeLabel)
			if !tablesIdentical(ExtendRows(g, t2, closing), ExtendRowsRef(g, t2, closing)) {
				t.Fatalf("batched closing edge diverges on skewed graph (triple %+v)", tr)
			}
		}
	}
	if extended == 0 {
		t.Fatal("degenerate skewed workload: no case extended any rows")
	}
}

// TestBatchedExtendViewsDifferential: the multi-view form over a fragment
// partition must agree with the reference multi-view form, row for row.
func TestBatchedExtendViewsDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6+r.Intn(10))
		p1, child := randomChild(r)
		t1 := EdgeMatches(g, p1, nil)
		views := parityViews(g)
		return tablesIdentical(extendRowsViews(views, t1, child), extendRowsViewsRef(views, t1, child))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// parityViews splits g's edges by the parity of their position in edge
// order into two SubCSR views over the same nodes whose union is the
// graph — the ParDis worker shape.
func parityViews(g *graph.Graph) []graph.View {
	var parts [2][]graph.IEdge
	i := 0
	graph.ViewEdges(g, func(e graph.IEdge) bool {
		parts[i%2] = append(parts[i%2], e)
		i++
		return true
	})
	return []graph.View{graph.NewSubCSR(g, parts[0]), graph.NewSubCSR(g, parts[1])}
}

// aliasLabels is the number of edge labels aliasGraph interns after the
// three node labels: enough that labels 64 apart share a signature bit.
const aliasLabels = 70

// aliasGraph draws a random graph over node labels a, b and c whose edge
// labels e0 … e69 are interned in order, so eJ and e(J+64) share a
// signature bit. One edge carries each label; the rest carry the six
// aliased pairs, so signatures alias on most nodes.
func aliasGraph(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n, aliasLabels+3*n)
	for _, l := range []string{"a", "b", "c"} {
		g.AddNode(l, nil)
	}
	for g.NumNodes() < n {
		g.AddNode([]string{"a", "b", "c"}[r.Intn(3)], nil)
	}
	for j := 0; j < aliasLabels; j++ {
		g.AddEdge(graph.NodeID(j%n), graph.NodeID((j+1)%n), fmt.Sprintf("e%d", j))
	}
	for i := 0; i < 3*n; i++ {
		if s, d := r.Intn(n), r.Intn(n); s != d {
			g.AddEdge(graph.NodeID(s), graph.NodeID(d), aliasedLabel(r))
		}
	}
	g.Finalize()
	return g
}

// aliasedLabel draws one label of the aliased pairs (eJ, e(J+64)).
func aliasedLabel(r *rand.Rand) string {
	return fmt.Sprintf("e%d", r.Intn(aliasLabels-64)+64*r.Intn(2))
}

// TestBatchedExtendSignatureAliasing: closing children whose labels share
// a signature bit (eJ and e(J+64)) must come out byte-identical to the
// row-at-a-time reference, which reads no signature, over one view, the
// edge-parity two-view partition and a source-range cut: a bit set by
// the other label of a pair proves nothing, so the kernel must still
// probe.
func TestBatchedExtendSignatureAliasing(t *testing.T) {
	kept, empty := 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := aliasGraph(r, 6+r.Intn(20))
		e0, _ := g.LookupLabel("e0")
		e64, _ := g.LookupLabel("e64")
		if e0 == e64 || graph.LabelBit(e0) != graph.LabelBit(e64) || g.NumLabels() < aliasLabels {
			t.Fatalf("graph interns %d labels, e0 = %d, e64 = %d: not an aliased pair", g.NumLabels(), e0, e64)
		}
		parent := pattern.SingleEdge(pattern.Wildcard, aliasedLabel(r), pattern.Wildcard)
		table := EdgeMatches(g, parent, nil)
		if r.Intn(2) == 0 {
			grown := parent.ExtendNewNode(r.Intn(2), aliasedLabel(r), pattern.Wildcard, r.Intn(2) == 0)
			parent, table = grown, ExtendRows(g, table, grown)
		}
		n := parent.N()
		src := r.Intn(n)
		dst := (src + 1 + r.Intn(n-1)) % n
		j := r.Intn(aliasLabels - 64)
		l, l64 := fmt.Sprintf("e%d", j), fmt.Sprintf("e%d", j+64)
		children := []*pattern.Pattern{
			parent.ExtendClosingEdge(src, dst, l),
			parent.ExtendClosingEdge(src, dst, l64),
			parent.ExtendClosingEdge(src, dst, aliasedLabel(r)),
			parent.ExtendClosingEdge(dst, src, l64),
			parent.ExtendClosingEdge(dst, src, l),
		}
		k := 2 + r.Intn(3)
		viewSets := [][]graph.View{{g}, parityViews(g), sourceRangeViews(g, k, r.Intn(k))}
		for _, views := range viewSets {
			batch := ExtendRowsViewsBatch(views, table, children)
			for i, c := range children {
				want := extendRowsViewsRef(views, table, c)
				if !tablesIdentical(batch[i], want) || !tablesIdentical(extendRowsViews(views, table, c), want) {
					t.Logf("seed %d: child %v over %d views diverged", seed, c, len(views))
					return false
				}
				if len(views) == 1 {
					if !tablesIdentical(ExtendRows(g, table, c), ExtendRowsRef(g, table, c)) {
						return false
					}
					if want.Len() > 0 {
						kept++
					} else {
						empty++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if kept == 0 || empty == 0 {
		t.Fatalf("degenerate: %d closing children kept rows, %d came out empty", kept, empty)
	}
}

// sourceRangeViews cuts g's edges into k fragments by contiguous source
// ranges — the vertex cut's shape, where a node's out-edges sit in one
// fragment and a fragment may hold none — and returns them own-first for
// fragment own, then in fragment order, as a ParDis worker probes them.
func sourceRangeViews(g *graph.Graph, k, own int) []graph.View {
	parts := make([][]graph.IEdge, k)
	for u := 0; u < g.NumNodes(); u++ {
		f := u * k / g.NumNodes()
		lo, hi := g.OutRuns(graph.NodeID(u))
		for rr := lo; rr < hi; rr++ {
			for _, d := range g.OutRunNodes(rr) {
				parts[f] = append(parts[f], graph.IEdge{Src: graph.NodeID(u), Dst: d, Label: g.OutRunLabel(rr)})
			}
		}
	}
	views := []graph.View{graph.NewSubCSR(g, parts[own])}
	for f := range parts {
		if f != own {
			views = append(views, graph.NewSubCSR(g, parts[f]))
		}
	}
	return views
}

// TestExtendViewsNarrowing: over source-range fragments, where most views
// hold no edge at a row's anchor, the kernel's narrowing of the views per
// call and skipping per row must leave every parent part's extension —
// single and batched, heap SubCSR or spilled MappedGraph fragments —
// identical to the reference, which probes every view. Parts are row
// ranges of a pivot-ordered table, as a worker's part is, so narrowing
// does drop views; the batch carries a closing group, so grouped children
// are narrowed too.
func TestExtendViewsNarrowing(t *testing.T) {
	narrowed := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 8+r.Intn(24))
		p1, child := randomChild(r)
		_, sibling := randomChild(r)
		sibling = p1.ExtendNewNode(r.Intn(2), sibling.LastEdge().Label, pattern.Wildcard, r.Intn(2) == 0)
		children := append([]*pattern.Pattern{child, sibling}, closingGroup(r, p1)...)
		k := 2 + r.Intn(5)
		views := sourceRangeViews(g, k, r.Intn(k))
		if r.Intn(2) == 0 {
			views = mappedViews(t, views)
		}
		kern := newKernel(views)
		defer kern.release()
		t1 := EdgeMatches(g, p1, nil)
		step := 1 + r.Intn(6)
		for lo := 0; lo < t1.Len(); lo += step {
			part := t1.Slice(lo, min(lo+step, t1.Len()))
			batch := ExtendRowsViewsBatch(views, part, children)
			for i, c := range children {
				want := extendRowsViewsRef(views, part, c)
				if !tablesIdentical(extendRowsViews(views, part, c), want) ||
					!tablesIdentical(batch[i], want) || !exactSize(batch[i]) {
					return false
				}
			}
			kern.setTable(part)
			for v := 0; v < 2; v++ {
				for _, outgoing := range []bool{true, false} {
					if lv, _ := kern.narrow(part, v, outgoing); len(lv) < len(views) {
						narrowed++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if narrowed == 0 {
		t.Fatal("degenerate: no part narrowed the views")
	}
}

// TestBatchedExtendIndexedDifferential: the single-view indexed share must
// agree with its reference, element for element — the merge path depends
// on identical ParentRows/NewCol.
func TestBatchedExtendIndexedDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(10))
		p1, child := randomChild(r)
		t1 := EdgeMatches(g, p1, nil)
		got := ExtendIndexedBatch(g, t1, []*pattern.Pattern{child})[0]
		want := extendIndexedRef(g, t1, child)
		return reflect.DeepEqual(got.ParentRows, want.ParentRows) &&
			reflect.DeepEqual(got.NewCol, want.NewCol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
