package match

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// hubGraph: one source node pointing at a hub that fans out to n leaf
// children — the adversarial shape for input-row chunking: the parent
// table anchored at the hub has one row, the extend's output has n.
func hubGraph(n int) *graph.Graph {
	g := graph.New(n+2, n+1)
	src := g.AddNode("src", nil)
	hub := g.AddNode("hub", nil)
	g.AddEdge(src, hub, "ptr")
	for i := 0; i < n; i++ {
		c := g.AddNode("leaf", nil)
		g.AddEdge(hub, c, "fan")
	}
	g.Finalize()
	return g
}

// TestEstimateExtendRowsHub: a hub parent with a single row must be
// estimated at roughly its true fan-out, not its input size — this is
// the signal that makes the work-steal chunker split hub extends.
func TestEstimateExtendRowsHub(t *testing.T) {
	const fanout = 1000
	g := hubGraph(fanout)
	p := pattern.SingleEdge("src", "ptr", "hub")
	tbl := EdgeMatches(g, p, nil)
	if tbl.Len() != 1 {
		t.Fatalf("parent table has %d rows, want 1", tbl.Len())
	}

	child := p.ExtendNewNode(1, "fan", "leaf", true)
	est := EstimateExtendRows(g, tbl, child)
	got := ExtendIndexedBatch(g, tbl, []*pattern.Pattern{child})[0]
	if len(got.NewCol) != fanout {
		t.Fatalf("true extend output %d rows, want %d", len(got.NewCol), fanout)
	}
	// The estimate must see the fan-out: within 2x of the truth and far
	// above the 1-row input.
	if est < fanout/2 || est > fanout*2 {
		t.Fatalf("estimate %d for a %d-fanout hub with 1 input row", est, fanout)
	}

	// A wildcard-label extend routes through the all-labels stats and
	// must still see the hub.
	wchild := p.ExtendNewNode(1, pattern.Wildcard, pattern.Wildcard, true)
	if west := EstimateExtendRows(g, tbl, wchild); west < fanout/2 {
		t.Fatalf("wildcard estimate %d, want >= %d", west, fanout/2)
	}
}

// TestEstimateExtendRowsEdgeCases: closing edges filter rather than fan
// out, unknown labels cannot match, and degenerate inputs are safe.
func TestEstimateExtendRowsEdgeCases(t *testing.T) {
	g := hubGraph(100)
	p := pattern.SingleEdge("src", "ptr", "hub")
	tbl := EdgeMatches(g, p, nil)

	closing := p.ExtendClosingEdge(1, 0, pattern.Wildcard)
	if est := EstimateExtendRows(g, tbl, closing); est != tbl.Len() {
		t.Fatalf("closing-edge estimate %d, want the input row count %d", est, tbl.Len())
	}
	missing := p.ExtendNewNode(1, "no-such-label", pattern.Wildcard, true)
	if est := EstimateExtendRows(g, tbl, missing); est != 0 {
		t.Fatalf("unknown-label estimate %d, want 0", est)
	}
	if est := EstimateExtendRows(g, nil, closing); est != 0 {
		t.Fatalf("nil-table estimate %d, want 0", est)
	}
	empty := EdgeMatches(g, pattern.SingleEdge("leaf", "ptr", "src"), nil)
	if est := EstimateExtendRows(g, empty, closing); est != 0 {
		t.Fatalf("empty-table estimate %d, want 0", est)
	}
}
