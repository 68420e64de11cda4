package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Planner v2 changes only the variable binding order, never the match
// semantics: every planner mode must enumerate the same match set on the
// same graph. These differentials run random patterns over both uniform
// random graphs and the power-law graphs whose hub concentration is what
// the degree-aware estimator reacts to.

// CompileStatic builds a plan with the pre-statistics step order (most
// pattern edges into the bound prefix first, ignoring the view's label
// frequencies): the reference point of the selectivity-ordering
// differential tests.
func CompileStatic(v graph.View, p *pattern.Pattern) *Plan {
	return compile(v, p, PlanStatic)
}

// CompileGlobal builds a plan with the planner-v1 estimator (global
// per-label selectivity, no degree correction): the second reference,
// isolating what the degree-aware correction changes.
func CompileGlobal(v graph.View, p *pattern.Pattern) *Plan {
	return compile(v, p, PlanGlobal)
}

func planMatchSet(pl *Plan) []Match {
	var out []Match
	pl.Enumerate(func(m Match) bool {
		out = append(out, append(Match(nil), m...))
		return true
	})
	return out
}

func TestPlannerModesDifferentialRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 5+r.Intn(10))
		p := randomPlanPattern(r)
		degree := planMatchSet(Compile(g, p))
		static := planMatchSet(CompileStatic(g, p))
		global := planMatchSet(CompileGlobal(g, p))
		return sameMatchSet(degree, static) && sameMatchSet(degree, global)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlannerModesDifferentialSkewed(t *testing.T) {
	g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 400, Edges: 2000, Seed: 11, Skew: 1.1})
	st := graph.NewStats(g)
	matched := 0
	for _, tr := range st.FrequentTriples(4) {
		p := pattern.SingleEdge(tr.SrcLabel, tr.EdgeLabel, tr.DstLabel).
			ExtendNewNode(1, tr.EdgeLabel, pattern.Wildcard, true)
		degree := planMatchSet(Compile(g, p))
		static := planMatchSet(CompileStatic(g, p))
		global := planMatchSet(CompileGlobal(g, p))
		if !sameMatchSet(degree, static) || !sameMatchSet(degree, global) {
			t.Fatalf("planner modes disagree on skewed graph for triple %+v: degree=%d static=%d global=%d",
				tr, len(degree), len(static), len(global))
		}
		matched += len(degree)
	}
	if matched == 0 {
		t.Fatal("degenerate skewed workload: no matches in any mode")
	}
	// Support and PivotNodes ride on the same binding machinery.
	p := pattern.SingleEdge(pattern.Wildcard, st.FrequentTriples(1)[0].EdgeLabel, pattern.Wildcard)
	if a, b := Compile(g, p).Support(), CompileStatic(g, p).Support(); a != b {
		t.Fatalf("Support diverges across planner modes: %d vs %d", a, b)
	}
}

// TestDefaultPlannerIsDegree locks the flag default: ablations flip it
// explicitly, production paths get the v2 estimator.
func TestDefaultPlannerIsDegree(t *testing.T) {
	if DefaultPlanner != PlanDegree {
		t.Fatalf("DefaultPlanner = %v, want PlanDegree", DefaultPlanner)
	}
}
