package match

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// TestLabelSigsInvalidatedByMutation: the closing filter's signatures are
// cached in the graph's PlanCache, and a stale one would drop a row
// silently where a stale plan fails loudly. After a closing extension
// has cached them, an edge with a new label must be found, after an
// explicit Finalize and after the lazy one a mutated graph runs itself.
func TestLabelSigsInvalidatedByMutation(t *testing.T) {
	g := graph.New(2, 3)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddEdge(a, b, "r")
	g.Finalize()
	parent := pattern.SingleEdge("a", "r", "b")
	rows := EdgeMatches(g, parent, nil)
	if n := ExtendRows(g, rows, parent.ExtendClosingEdge(1, 0, "r")).Len(); n != 0 {
		t.Fatalf("closing b -r-> a kept %d rows before any mutation, want 0", n)
	}
	g.AddEdge(a, b, "newrel")
	g.Finalize()
	if n := ExtendRows(g, rows, parent.ExtendClosingEdge(0, 1, "newrel")).Len(); n != 1 {
		t.Fatalf("closing a -newrel-> b kept %d rows after Finalize, want 1 (stale signatures?)", n)
	}
	g.AddEdge(b, a, "later")
	if n := ExtendRows(g, rows, parent.ExtendClosingEdge(1, 0, "later")).Len(); n != 1 {
		t.Fatalf("closing b -later-> a kept %d rows on an unfinalized graph, want 1 (stale signatures?)", n)
	}
}

// outToCounter counts the OutTo probes made through a view.
type outToCounter struct {
	graph.View
	calls *int
}

func (v outToCounter) OutTo(n graph.NodeID, l graph.LabelID) []graph.NodeID {
	*v.calls++
	return v.View.OutTo(n, l)
}

// TestClosingSignatureEngaged: a closing child whose label leaves the
// source but never enters a row's destination in the probed view must be
// proved empty without one OutTo call; without the signatures the kernel
// makes one per source run and view. Another view that does hold such an
// edge into the destination must not matter, so signatures built from
// the wrong view (or with every bit set) fail here. A child whose label
// does reach the destinations still probes and keeps its rows.
func TestClosingSignatureEngaged(t *testing.T) {
	g := graph.New(6, 6)
	x := g.AddNode("a", nil)
	ys := []graph.NodeID{g.AddNode("b", nil), g.AddNode("b", nil), g.AddNode("b", nil)}
	z := g.AddNode("c", nil)
	w := g.AddNode("c", nil)
	var first, second []graph.IEdge // x's edges, then w's
	for _, y := range ys {
		g.AddEdge(x, y, "r")
		g.AddEdge(x, y, "q")
	}
	g.AddEdge(x, z, "s")
	g.AddEdge(w, ys[0], "s")
	g.Finalize()
	graph.ViewEdges(g, func(e graph.IEdge) bool {
		if e.Src == x {
			first = append(first, e)
		} else {
			second = append(second, e)
		}
		return true
	})
	if sl, _ := g.LookupLabel("s"); graph.LabelSigsFor(g).In(ys[0])&graph.LabelBit(sl) == 0 {
		t.Fatal("degenerate: the whole graph's signatures would rule out x -s-> y too")
	}
	calls := 0
	views := []graph.View{
		outToCounter{graph.NewSubCSR(g, first), &calls},
		outToCounter{graph.NewSubCSR(g, second), &calls},
	}
	parent := pattern.SingleEdge("a", "r", "b")
	rows := EdgeMatches(g, parent, nil)
	if rows.Len() != len(ys) {
		t.Fatalf("parent has %d rows, want %d", rows.Len(), len(ys))
	}
	for _, c := range []struct {
		label string
		rows  int
		probe bool
	}{{"s", 0, false}, {"q", len(ys), true}} {
		calls = 0
		out := ExtendRowsViewsBatch(views, rows, []*pattern.Pattern{parent.ExtendClosingEdge(0, 1, c.label)})[0]
		if out.Len() != c.rows {
			t.Fatalf("closing x -%s-> y kept %d rows, want %d", c.label, out.Len(), c.rows)
		}
		if probed := calls > 0; probed != c.probe {
			t.Fatalf("closing x -%s-> y made %d OutTo calls; want probes: %v", c.label, calls, c.probe)
		}
	}
}
