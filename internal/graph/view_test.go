package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomViewGraph(r *rand.Rand, n, m int) *Graph {
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"r", "s", "t", "u"}
	g := New(n, m)
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabels[r.Intn(len(nodeLabels))], map[string]string{"k": nodeLabels[r.Intn(3)]})
	}
	for i := 0; i < m; i++ {
		s, d := r.Intn(n), r.Intn(n)
		g.AddEdge(NodeID(s), NodeID(d), edgeLabels[r.Intn(len(edgeLabels))])
	}
	g.Finalize()
	return g
}

// collectEdges drains a graph's interned edge set.
func collectEdges(g *Graph) []IEdge {
	var out []IEdge
	for v := 0; v < g.NumNodes(); v++ {
		lo, hi := g.OutRuns(NodeID(v))
		for r := lo; r < hi; r++ {
			l := g.OutRunLabel(r)
			for _, d := range g.OutRunNodes(r) {
				out = append(out, IEdge{Src: NodeID(v), Dst: d, Label: l})
			}
		}
	}
	return out
}

// TestSubCSRDifferential builds SubCSR views over random edge subsets and
// checks every adjacency accessor against the full graph's CSR restricted
// to the subset — the fragment view must be indistinguishable from "the
// graph, minus the edges the fragment does not hold".
func TestSubCSRDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := randomViewGraph(r, 3+r.Intn(8), 2+r.Intn(24))
		all := collectEdges(g)
		// Random subset, including empty and full.
		var sub []IEdge
		inSub := make(map[IEdge]bool)
		for _, e := range all {
			if r.Intn(3) != 0 {
				sub = append(sub, e)
				inSub[e] = true
			}
		}
		s := NewSubCSR(g, sub)

		if s.NumEdges() != len(sub) {
			t.Fatalf("trial %d: NumEdges = %d, want %d", trial, s.NumEdges(), len(sub))
		}
		if s.NumNodes() != g.NumNodes() {
			t.Fatalf("trial %d: NumNodes = %d, want %d (node store is shared)", trial, s.NumNodes(), g.NumNodes())
		}

		// Reference restricted adjacency per (node, label).
		outRef := make(map[NodeID]map[LabelID][]NodeID)
		inRef := make(map[NodeID]map[LabelID][]NodeID)
		add := func(m map[NodeID]map[LabelID][]NodeID, k NodeID, l LabelID, o NodeID) {
			if m[k] == nil {
				m[k] = make(map[LabelID][]NodeID)
			}
			m[k][l] = append(m[k][l], o)
		}
		for _, e := range sub {
			add(outRef, e.Src, e.Label, e.Dst)
			add(inRef, e.Dst, e.Label, e.Src)
		}

		labelCount := make(map[LabelID]int)
		for _, e := range sub {
			labelCount[e.Label]++
		}

		for v := 0; v < g.NumNodes(); v++ {
			node := NodeID(v)
			if s.NodeLabelID(node) != g.NodeLabelID(node) {
				t.Fatalf("trial %d: node label diverged at %d", trial, v)
			}
			for l := 0; l < g.NumLabels(); l++ {
				lid := LabelID(l)
				got := append([]NodeID(nil), s.OutTo(node, lid)...)
				want := append([]NodeID(nil), outRef[node][lid]...)
				sortNodeIDs(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: OutTo(%d, %d) = %v, want %v", trial, v, l, got, want)
				}
				gotIn := append([]NodeID(nil), s.InFrom(node, lid)...)
				wantIn := append([]NodeID(nil), inRef[node][lid]...)
				sortNodeIDs(wantIn)
				if !reflect.DeepEqual(gotIn, wantIn) {
					t.Fatalf("trial %d: InFrom(%d, %d) = %v, want %v", trial, v, l, gotIn, wantIn)
				}
			}
			// Run iteration must cover exactly the restricted out-adjacency.
			n := 0
			lo, hi := s.OutRuns(node)
			for rr := lo; rr < hi; rr++ {
				n += len(s.OutRunNodes(rr))
				if len(s.OutRunNodes(rr)) == 0 {
					t.Fatalf("trial %d: empty run %d at node %d", trial, rr, v)
				}
			}
			wantDeg := 0
			for _, ns := range outRef[node] {
				wantDeg += len(ns)
			}
			if n != wantDeg {
				t.Fatalf("trial %d: out-degree via runs = %d, want %d", trial, n, wantDeg)
			}
			// HasEdgeID, concrete and wildcard, against the subset.
			for _, e := range all {
				if e.Src != node {
					continue
				}
				if s.HasEdgeID(e.Src, e.Dst, e.Label) != inSub[e] {
					t.Fatalf("trial %d: HasEdgeID(%v) = %v, want %v", trial, e, !inSub[e], inSub[e])
				}
			}
		}
		for l := 0; l < g.NumLabels(); l++ {
			if s.EdgeLabelCount(LabelID(l)) != labelCount[LabelID(l)] {
				t.Fatalf("trial %d: EdgeLabelCount(%d) = %d, want %d",
					trial, l, s.EdgeLabelCount(LabelID(l)), labelCount[LabelID(l)])
			}
		}
		if s.EdgeLabelCount(NoLabel) != len(sub) {
			t.Fatalf("trial %d: EdgeLabelCount(NoLabel) = %d, want %d", trial, s.EdgeLabelCount(NoLabel), len(sub))
		}

		// Edges iteration round-trips the subset.
		var back []IEdge
		s.Edges(func(e IEdge) bool { back = append(back, e); return true })
		if len(back) != len(sub) {
			t.Fatalf("trial %d: Edges yielded %d, want %d", trial, len(back), len(sub))
		}
		for _, e := range back {
			if !inSub[e] {
				t.Fatalf("trial %d: Edges yielded foreign edge %v", trial, e)
			}
		}
	}
}

func sortNodeIDs(ns []NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// TestSubCSRDeduplicates: duplicate input edges collapse, like Finalize.
func TestSubCSRDeduplicates(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "r")
	g.Finalize()
	l, _ := g.LookupLabel("r")
	s := NewSubCSR(g, []IEdge{{a, b, l}, {a, b, l}, {a, b, l}})
	if s.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", s.NumEdges())
	}
}

// TestSubCSREdgeBounds: a fragment's bounds are the tight source and
// destination ranges of its edges, and every probe outside them is empty.
func TestSubCSREdgeBounds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomViewGraph(r, 40, 160)
	all := collectEdges(g)
	for trial := 0; trial < 50; trial++ {
		var sub []IEdge
		keep := r.Intn(4) // 0: the empty fragment
		for _, e := range all {
			if keep > 0 && r.Intn(4) < keep {
				sub = append(sub, e)
			}
		}
		s := NewSubCSR(g, sub)
		want := EdgeBounds{}
		for i, e := range sub {
			if i == 0 {
				want = EdgeBounds{e.Src, e.Src + 1, e.Dst, e.Dst + 1}
			}
			want.SrcLo, want.SrcHi = min(want.SrcLo, e.Src), max(want.SrcHi, e.Src+1)
			want.DstLo, want.DstHi = min(want.DstLo, e.Dst), max(want.DstHi, e.Dst+1)
		}
		got := s.EdgeBounds()
		if got != want {
			t.Fatalf("trial %d (%d edges): EdgeBounds = %+v, want %+v", trial, len(sub), got, want)
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if lo, hi := s.OutRuns(v); lo != hi && (v < got.SrcLo || v >= got.SrcHi) {
				t.Fatalf("trial %d: node %d has out-edges outside %+v", trial, v, got)
			}
			if lo, hi := s.InRuns(v); lo != hi && (v < got.DstLo || v >= got.DstHi) {
				t.Fatalf("trial %d: node %d has in-edges outside %+v", trial, v, got)
			}
		}
	}
}

// TestSubCSRPlanCacheIndependent: each view caches its own compiled plans.
func TestSubCSRPlanCacheIndependent(t *testing.T) {
	g := New(2, 1)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "r")
	g.Finalize()
	s := NewSubCSR(g, nil)
	if s.PlanCache() == g.PlanCache() {
		t.Fatal("fragment view shares the base graph's plan cache")
	}
	key := "k"
	s.PlanCache().Store(key, 1)
	if _, ok := g.PlanCache().Load(key); ok {
		t.Fatal("fragment cache entry leaked into the base graph")
	}
}

// TestGraphEdgeLabelCount checks the per-label statistics the selectivity
// planner reads.
func TestGraphEdgeLabelCount(t *testing.T) {
	g := New(3, 4)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("c", nil)
	g.AddEdge(a, b, "r")
	g.AddEdge(a, c, "r")
	g.AddEdge(b, c, "s")
	g.Finalize()
	r, _ := g.LookupLabel("r")
	s, _ := g.LookupLabel("s")
	if got := g.EdgeLabelCount(r); got != 2 {
		t.Fatalf("EdgeLabelCount(r) = %d, want 2", got)
	}
	if got := g.EdgeLabelCount(s); got != 1 {
		t.Fatalf("EdgeLabelCount(s) = %d, want 1", got)
	}
	if got := g.EdgeLabelCount(NoLabel); got != 3 {
		t.Fatalf("EdgeLabelCount(NoLabel) = %d, want 3", got)
	}
	al, _ := g.LookupLabel("a") // node label: no edges carry it
	if got := g.EdgeLabelCount(al); got != 0 {
		t.Fatalf("EdgeLabelCount(node label) = %d, want 0", got)
	}
}
