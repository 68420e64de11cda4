package graph

import (
	"math/rand"
	"testing"
)

// TestLabelSigs: a view's signature of each node in each direction is
// exactly the OR of its runs' label bits in that view, for the whole
// graph and for fragments (the empty one included) whose edges touch a
// sub-range of the nodes, and nodes outside that range read 0.
func TestLabelSigs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomViewGraph(r, 40, 160)
	all := collectEdges(g)
	views := []View{g}
	for keep := 0; keep < 4; keep++ {
		var sub []IEdge
		for _, e := range all {
			if keep > 0 && r.Intn(4) < keep && e.Src >= 10 && e.Dst < 30 {
				sub = append(sub, e)
			}
		}
		views = append(views, NewSubCSR(g, sub))
	}
	for i, v := range views {
		s := LabelSigsFor(v)
		if LabelSigsFor(v) != s {
			t.Fatalf("view %d: signatures built twice", i)
		}
		for n := NodeID(0); int(n) < v.NumNodes(); n++ {
			var out, in uint64
			lo, hi := v.OutRuns(n)
			for r := lo; r < hi; r++ {
				out |= LabelBit(v.OutRunLabel(r))
			}
			lo, hi = v.InRuns(n)
			for r := lo; r < hi; r++ {
				in |= LabelBit(v.InRunLabel(r))
			}
			if s.Out(n) != out || s.In(n) != in {
				t.Fatalf("view %d node %d: signatures out %b in %b, want %b and %b", i, n, s.Out(n), s.In(n), out, in)
			}
		}
	}
}
