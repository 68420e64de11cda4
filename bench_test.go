package gfd

// This file regenerates every table and figure of the paper's evaluation
// (Section 7) as Go benchmarks — one Benchmark per figure/table, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs the corresponding experiment of internal/bench and logs the
// resulting table (visible with `go test -bench=. -v` or in -benchmem
// runs); EXPERIMENTS.md records paper-vs-measured values.
//
// Scale: set GFD_BENCH_SCALE (e.g. 0.5 or 2.0) to shrink or grow the
// datasets; default 1.0 is roughly 1/500 of the paper's setting.

import (
	"context"
	"os"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/match"
	"repro/internal/parallel"
)

func benchConfig() bench.Config {
	scale := 1.0
	if s := os.Getenv("GFD_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	// Three worker points keep the full -bench sweep affordable on one
	// core; cmd/gfdbench defaults to the paper's five.
	return bench.Config{Scale: scale, Workers: []int{4, 12, 20}}
}

// TestMain removes the micro workload's temp snapshot after -bench runs
// (no-op when the micro suite never ran).
func TestMain(m *testing.M) {
	code := m.Run()
	bench.CleanupMicro()
	os.Exit(code)
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb logWriter
			t.Fprint(&sb)
			b.Log("\n" + string(sb))
		}
	}
}

type logWriter []byte

func (w *logWriter) Write(p []byte) (int, error) { *w = append(*w, p...); return len(p), nil }

// --- One benchmark per figure/table ---

func BenchmarkFig5a(b *testing.B) { runExperiment(b, "fig5a") } // DisGFD vs ParGFDnb, DBpedia
func BenchmarkFig5b(b *testing.B) { runExperiment(b, "fig5b") } // ... YAGO2
func BenchmarkFig5c(b *testing.B) { runExperiment(b, "fig5c") } // ... IMDB
func BenchmarkFig5d(b *testing.B) { runExperiment(b, "fig5d") } // GFD vs GCFD vs AMIE
func BenchmarkFig5e(b *testing.B) { runExperiment(b, "fig5e") } // varying |G|
func BenchmarkFig5f(b *testing.B) { runExperiment(b, "fig5f") } // varying k
func BenchmarkFig5g(b *testing.B) { runExperiment(b, "fig5g") } // varying σ
func BenchmarkFig5h(b *testing.B) { runExperiment(b, "fig5h") } // varying |Γ|
func BenchmarkFig5i(b *testing.B) { runExperiment(b, "fig5i") } // ParCover vs ParCovern, DBpedia
func BenchmarkFig5j(b *testing.B) { runExperiment(b, "fig5j") } // ... YAGO2
func BenchmarkFig5k(b *testing.B) { runExperiment(b, "fig5k") } // ... IMDB
func BenchmarkFig5l(b *testing.B) { runExperiment(b, "fig5l") } // varying |Σ|
func BenchmarkFig6(b *testing.B)  { runExperiment(b, "fig6") }  // sequential cost table
func BenchmarkFig7(b *testing.B)  { runExperiment(b, "fig7") }  // accuracy table
func BenchmarkFig8(b *testing.B)  { runExperiment(b, "fig8") }  // qualitative GFDs

// BenchmarkInfeasibleBaselines measures the ParGFDn / ParArab blow-up.
func BenchmarkInfeasibleBaselines(b *testing.B) { runExperiment(b, "infeas") }

// --- Ablation benches (design choices called out in DESIGN.md §4) ---

func ablationGraph() (*Graph, DiscoverOptions) {
	g := dataset.YAGO2Sim(400, 42)
	opts := DiscoverOptions{
		K: 3, Support: 25, ConstantsPerAttr: 5, MaxX: 1, WildcardNodes: true,
		MaxExtensionsPerPattern: 20, MaxPatternsPerLevel: 100, MaxLevels: 4,
		MaxNegatives: 100,
	}
	return g, opts
}

// BenchmarkAblationPruning compares integrated mining with and without the
// Lemma 4 prunings (budgeted, so the unpruned run terminates).
func BenchmarkAblationPruning(b *testing.B) {
	g, opts := ablationGraph()
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := discovery.Mine(g, opts)
			b.ReportMetric(float64(res.Stats.CandidatesChecked), "candidates")
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		o := opts
		o.DisablePruning = true
		o.CandidateBudget = 300000
		for i := 0; i < b.N; i++ {
			res := discovery.Mine(g, o)
			b.ReportMetric(float64(res.Stats.CandidatesChecked), "candidates")
		}
	})
}

// BenchmarkAblationDecoupled compares integrated vs two-phase (ParArab).
func BenchmarkAblationDecoupled(b *testing.B) {
	g, opts := ablationGraph()
	b.Run("integrated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := discovery.Mine(g, opts)
			b.ReportMetric(float64(res.Stats.TotalTableRows), "table-rows")
		}
	})
	b.Run("decoupled", func(b *testing.B) {
		o := opts
		o.Decoupled = true
		for i := 0; i < b.N; i++ {
			res := discovery.Mine(g, o)
			b.ReportMetric(float64(res.Stats.TotalTableRows), "table-rows")
		}
	})
}

// BenchmarkAblationBalance compares simulated response time with and
// without match redistribution on a skewed graph.
func BenchmarkAblationBalance(b *testing.B) {
	g, opts := ablationGraph()
	for _, mode := range []struct {
		name string
		lb   bool
	}{{"balanced", true}, {"unbalanced", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := cluster.New(cluster.Config{Workers: 8})
				res := parallel.Mine(context.Background(), g, opts, eng, parallel.Options{LoadBalance: mode.lb})
				b.ReportMetric(res.Cluster.Total().Seconds(), "sim-s")
				b.ReportMetric(res.Cluster.Skew(), "skew")
			}
		})
	}
}

// BenchmarkAblationGrouping compares cover computation with and without
// Lemma 6 grouping.
func BenchmarkAblationGrouping(b *testing.B) {
	g, _ := ablationGraph()
	sigma := dataset.GenGFDs(g, dataset.GFDGenConfig{Count: 800, K: 3, Seed: 7})
	for _, mode := range []struct {
		name  string
		cover func([]*core.GFD, *cluster.Engine) *parallel.CoverResult
	}{{"grouped", parallel.Cover}, {"ungrouped", parallel.CoverUngrouped}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := cluster.New(cluster.Config{Workers: 8})
				res := mode.cover(sigma, eng)
				b.ReportMetric(res.CoverTime().Seconds(), "sim-s")
			}
		})
	}
}

// BenchmarkAblationSupportDef contrasts the paper's pivoted support with
// the naive match-count support it rejects: pivoted support is cheaper to
// maintain under extension and anti-monotone (see eval tests).
func BenchmarkAblationSupportDef(b *testing.B) {
	g, _ := ablationGraph()
	p := SingleEdge("person", "hasChild", Wildcard)
	b.Run("pivoted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			match.PatternSupport(g, p)
		}
	})
	b.Run("match-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			match.CountMatches(g, p, 0)
		}
	})
}

// --- Micro-benchmarks of the core machinery ---

// BenchmarkMicro runs the shared micro suite (internal/bench.MicroSpecs):
// the same bodies gfdbench -json measures, including the fragment-view
// benches that pin the ParDis refactor's claim — per-worker match cost
// (PivotNodes against one n=4 fragment's SubCSR; ExtendRows over one
// worker's row share and view order) sits measurably below the full-graph
// cost, scaling with fragment size rather than |G|.
func BenchmarkMicro(b *testing.B) {
	for _, s := range bench.MicroSpecs() {
		b.Run(s.Name, s.Fn)
	}
}

func BenchmarkMatcherEnumerate(b *testing.B) {
	g := dataset.YAGO2Sim(400, 42)
	p := SingleEdge(Wildcard, "citizenOf", "country")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.CountMatches(g, p, 0)
	}
}

// dbpediaBenchWorkload returns a DBpedia-shaped graph and a 2-edge path
// pattern over its frequent types, the pivoted-matching workload that
// dominates SeqDis/ParDis and every Fig. 5 benchmark.
func dbpediaBenchWorkload() (*Graph, *Pattern) {
	g := dataset.DBpediaSim(2000, 42)
	// x0:T00 -r00-> x1:T01 -r01-> x2:T02, pivoted at x0 (relation r_k
	// prefers source type T_k and destination type T_{k+1}).
	p := SingleEdge("T00", "r00", "T01").ExtendNewNode(1, "r01", "T02", true)
	return g, p
}

func BenchmarkPivotNodes(b *testing.B) {
	g, p := dbpediaBenchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pivots := match.PivotNodes(g, p); len(pivots) == 0 {
			b.Fatal("workload pattern has no pivots")
		}
	}
}

func BenchmarkMatchesAt(b *testing.B) {
	g, p := dbpediaBenchWorkload()
	cands := g.NodesByLabel("T00")
	if len(cands) == 0 {
		b.Fatal("no candidate pivots")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		match.MatchesAt(g, p, cands[i%len(cands)], func(match.Match) bool {
			n++
			return true
		})
	}
}

// BenchmarkExtendRows measures one incremental join Q(t) ⋈ e(G) on the
// DBpediaSim workload — the dominant per-level operation of SeqDis/ParDis.
// The columnar table appends cells to flat per-variable columns, so
// allocations are slice growth only, not one slice per output row.
func BenchmarkExtendRows(b *testing.B) {
	g, p := dbpediaBenchWorkload()
	parent := SingleEdge("T00", "r00", "T01")
	t1 := match.EdgeMatches(g, parent, nil)
	if t1.Len() == 0 {
		b.Fatal("empty parent table")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := match.ExtendRows(g, t1, p)
		if t2.Len() == 0 {
			b.Fatal("empty extension")
		}
	}
}

// BenchmarkTableSupport measures distinct-pivot counting over a
// materialised table — a bitset scan of the pivot column.
func BenchmarkTableSupport(b *testing.B) {
	g, p := dbpediaBenchWorkload()
	parent := SingleEdge("T00", "r00", "T01")
	t2 := match.ExtendRows(g, match.EdgeMatches(g, parent, nil), p)
	if t2.Len() == 0 {
		b.Fatal("empty table")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t2.Support() == 0 {
			b.Fatal("no support")
		}
	}
}

func BenchmarkImplication(b *testing.B) {
	g := dataset.YAGO2Sim(200, 42)
	sigma := dataset.GenGFDs(g, dataset.GFDGenConfig{Count: 300, K: 3, Seed: 7})
	phi := sigma[len(sigma)-1]
	rest := sigma[:len(sigma)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Implies(rest, phi)
	}
}

func BenchmarkValidation(b *testing.B) {
	g := dataset.YAGO2Sim(400, 42)
	phi := New(SingleEdge(Wildcard, "hasChild", Wildcard), nil,
		Vars(0, "familyname", 1, "familyname"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Validate(g, phi)
	}
}
