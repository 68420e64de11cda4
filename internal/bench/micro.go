package bench

// Micro-benchmarks of the core matching machinery, runnable both as Go
// benchmarks (the root BenchmarkMicro tree) and programmatically for
// machine-readable output (gfdbench -json). The fragment-view entries are
// the per-worker cost check of the ParDis refactor: PivotNodes/ExtendRows
// against one fragment's SubCSR must sit measurably below the full-graph
// cost, and shrink as worker counts grow.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/store"
)

// MicroResult is one micro-benchmark's measurement in the units Go's
// testing package reports.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// MicroSpec names one micro-benchmark body, shared by `go test -bench
// Micro` and the -json harness.
type MicroSpec struct {
	Name string
	Fn   func(b *testing.B)
}

// microEnv is the shared micro-benchmark workload — by default the
// DBpediaSim 2-edge path pattern over frequent types that dominates
// SeqDis/ParDis, its parent table, and an n=4 vertex cut with the
// per-worker join inputs precomputed. With SetMicroInput the graph comes
// from a user-supplied file instead (TSV or snapshot, auto-detected) and
// the pattern/literal shapes are derived from its statistics.
type microEnv struct {
	g      graph.View
	parent *pattern.Pattern
	child  *pattern.Pattern
	t1     *match.Table
	t2     *match.Table // t1 extended by child's new edge: the literal-path workload

	// literal shapes for the SatRows/Constants micros (derived from stats
	// for custom inputs, the fixed DBpediaSim ones otherwise).
	constAttr, constVal, varAttr string
	pivotLabel                   string // parent pattern's source label, for MatchesAt

	// busiest worker's join inputs at n=4: its row share and view order
	// (own fragment first, then the received ones).
	part  *match.Table
	views []graph.View
	// the cut itself and the busiest worker's index, for the remote micros
	// (they serve one received fragment over loopback TCP).
	frags   []parallel.Fragment
	busiest int
	// largest fragment view for pivoted matching.
	frag graph.View

	// snapshot-vs-TSV load surfaces: the graph serialised both ways,
	// built lazily (loadSurfaces) so only the load micros pay for a full
	// in-memory TSV copy and a snapshot temp file of the input graph.
	loadOnce sync.Once
	loadErr  error
	tsv      []byte
	snapPath string
}

var (
	microOnce    sync.Once
	microE       microEnv
	microInView  graph.View
	microInStats *graph.Stats
)

// Skewed workload for the batched-kernel micros: a power-law synthetic
// graph (hub-heavy degree distribution) whose parent table is extended at
// the *source* variable, so the kernel's anchor column is the grouped
// pivot column and the equal-anchor runs mirror the hub sizes — the shape
// the run-batched extend kernel is built for. Built lazily, like microEnv.
var (
	skewOnce  sync.Once
	skewG     graph.View
	skewT1    *match.Table
	skewChild *pattern.Pattern
)

func skewWorkload() (graph.View, *match.Table, *pattern.Pattern) {
	skewOnce.Do(func() {
		g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 3000, Edges: 12000, Seed: 42, Skew: 1.1})
		st := graph.NewStats(g)
		t0 := st.FrequentTriples(1)[0]
		// Wildcard endpoints keep the hub runs intact (node-label
		// constraints would shred them); the concrete new-node label is the
		// filter the batching amortises across each run.
		parent := pattern.SingleEdge(pattern.Wildcard, t0.EdgeLabel, pattern.Wildcard)
		skewG = g
		skewT1 = match.EdgeMatches(g, parent, nil)
		skewChild = parent.ExtendNewNode(0, t0.EdgeLabel, t0.DstLabel, true)
	})
	return skewG, skewT1, skewChild
}

// Closing-batch workload: a ParDis worker's part of the YAGO2Sim 2-edge
// pattern whose closing-edge children visit the most rows, with all of
// those children, joined over the worker's two spilled MappedGraph
// fragments — the shape the kernel's closing groups are built for. Built
// lazily, like microEnv; CleanupMicro removes the spill.
var (
	closingOnce     sync.Once
	closingErr      error
	closingDir      string
	closingAtt      *parallel.Attached
	closingPart     *match.Table
	closingChildren []*pattern.Pattern
	closingViews    []graph.View
)

func closingWorkload(b *testing.B) ([]graph.View, *match.Table, []*pattern.Pattern) {
	closingOnce.Do(func() { closingErr = buildClosingWorkload() })
	if closingErr != nil {
		b.Fatalf("build closing-batch workload: %v", closingErr)
	}
	return closingViews, closingPart, closingChildren
}

func buildClosingWorkload() error {
	const sigma = 25
	g := dataset.YAGO2Sim(1000, 1)
	st := graph.NewStats(g)
	var elabels []string
	for _, tr := range st.FrequentTriples(sigma) {
		if !slices.Contains(elabels, tr.EdgeLabel) {
			elabels = append(elabels, tr.EdgeLabel)
		}
	}
	// VSpawn's closing rule: an edge between two variables whose label
	// triple is σ-frequent and which the pattern does not have yet.
	best := 0
	for _, p := range levelTwoChildren(g, sigma) {
		var children []*pattern.Pattern
		for u := 0; u < p.N(); u++ {
			for w := 0; w < p.N(); w++ {
				for _, el := range elabels {
					key := graph.TripleKey{SrcLabel: p.NodeLabels[u], EdgeLabel: el, DstLabel: p.NodeLabels[w]}
					if u != w && st.TripleCount[key] >= sigma && !p.HasEdge(u, w, el) {
						children = append(children, p.ExtendClosingEdge(u, w, el))
					}
				}
			}
		}
		if len(children) == 0 {
			continue
		}
		e := p.Edges[0]
		parent := pattern.SingleEdge(p.NodeLabels[e.Src], e.Label, p.NodeLabels[e.Dst])
		t := match.ExtendRows(g, match.EdgeMatches(g, parent, nil), p)
		if t.Len()*len(children) > best {
			best, closingPart, closingChildren = t.Len()*len(children), t, children
		}
	}
	if closingPart == nil {
		return fmt.Errorf("no YAGO2Sim 2-edge pattern has closing-edge children")
	}
	dir, err := os.MkdirTemp("", "gfds-closing-micro-")
	if err != nil {
		return err
	}
	closingDir = dir
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, 2)); err != nil {
		return err
	}
	if closingAtt, err = parallel.Attach(dir); err != nil {
		return err
	}
	// Worker 0's part: the rows whose pivot it owns (the parent's pivot
	// column ascends, as EdgeMatches emits it).
	col := closingPart.PivotCol()
	lo := closingAtt.Frags[1].NodeLo
	closingPart = closingPart.Slice(0, sort.Search(len(col), func(r int) bool { return col[r] >= lo }))
	closingViews = []graph.View{closingAtt.Frags[0].Sub, closingAtt.Frags[1].Sub}
	return nil
}

// SetMicroInput points the micro suite at a graph file (TSV or snapshot,
// sniffed by magic bytes) instead of the built-in DBpediaSim workload —
// the gfdbench -in plumbing. It loads and validates the input eagerly so
// unusable graphs (no edges, no attributes) are a clean error at the CLI,
// not a panic mid-benchmark. Must be called before the first benchmark
// runs; the pattern and literal shapes are then derived from the input's
// frequency statistics, so the micro names stay comparable run-to-run for
// a fixed input.
func SetMicroInput(path string) error {
	v, _, err := store.LoadGraph(path) // mapping (if any) lives for the process
	if err != nil {
		return err
	}
	st := graph.NewStats(v)
	if len(st.FrequentTriples(1)) == 0 {
		return fmt.Errorf("bench: micro input %s has no edges", path)
	}
	if len(st.TopAttributes(1)) == 0 {
		return fmt.Errorf("bench: micro input %s has no node attributes", path)
	}
	microInView, microInStats = v, st
	return nil
}

func microWorkload() *microEnv {
	microOnce.Do(func() {
		e := &microE
		if microInView != nil {
			e.g = microInView
			deriveMicroShapes(e, microInStats)
		} else {
			e.g = dataset.DBpediaSim(2000, 42)
			e.parent = pattern.SingleEdge("T00", "r00", "T01")
			e.child = e.parent.ExtendNewNode(1, "r01", "T02", true)
			e.constAttr, e.constVal, e.varAttr = "category", "cat00", "origin"
			e.pivotLabel = "T00"
		}
		e.t1 = match.EdgeMatches(e.g, e.parent, nil)
		e.t2 = match.ExtendRows(e.g, e.t1, e.child)

		frags := parallel.VertexCut(e.g, 4)
		// Busiest worker = most parent rows under node ownership (the
		// seed-split rule of the parallel backend).
		col := e.t1.PivotCol()
		cuts := make([]int, 0, 3)
		for w := 1; w < len(frags); w++ {
			lo := frags[w].NodeLo
			cuts = append(cuts, sort.Search(len(col), func(r int) bool { return col[r] >= lo }))
		}
		parts := e.t1.Split(cuts...)
		busiest := 0
		for w, p := range parts {
			if p.Len() > parts[busiest].Len() {
				busiest = w
			}
		}
		e.part = parts[busiest]
		e.frags, e.busiest = frags, busiest
		e.views = append(e.views, frags[busiest].Sub)
		for w := range frags {
			if w != busiest {
				e.views = append(e.views, frags[w].Sub)
			}
		}
		// Largest fragment by edge count for the pivoted-matching bench.
		e.frag = frags[0].Sub
		for _, f := range frags {
			if f.Sub.NumEdges() > e.frag.NumEdges() {
				e.frag = f.Sub
			}
		}
	})
	return &microE
}

// loadSurfaces lazily materialises both serialised forms of the micro
// graph for the snapshot-vs-TSV load micros: parse cost is measured from
// memory, open cost from a real file (that is the unit mmap avoids
// re-paying). The build result (including its error) is recorded outside
// the Once, so a failure reports the real cause from every load micro
// instead of poisoning the Once for the next one.
func (e *microEnv) loadSurfaces(b *testing.B) {
	e.loadOnce.Do(func() { e.loadErr = e.buildLoadSurfaces() })
	if e.loadErr != nil {
		b.Fatalf("build load surfaces: %v", e.loadErr)
	}
}

func (e *microEnv) buildLoadSurfaces() error {
	var tsv bytes.Buffer
	if err := graph.Write(&tsv, e.g); err != nil {
		return fmt.Errorf("serialise micro graph: %w", err)
	}
	e.tsv = tsv.Bytes()
	f, err := os.CreateTemp("", "gfds-micro-*.gfds")
	if err != nil {
		return err
	}
	// Record the path first so CleanupMicro removes the file even when a
	// write below fails.
	e.snapPath = f.Name()
	if err := store.Write(f, e.g.(store.Source)); err != nil {
		f.Close()
		return fmt.Errorf("write micro snapshot: %w", err)
	}
	return f.Close()
}

// deriveMicroShapes picks the pattern and literal shapes for a custom
// input graph (already validated non-degenerate by SetMicroInput): the
// most frequent edge triple seeds the parent pattern, a compatible second
// triple extends it, and the top attributes/values seed the literal
// micros.
func deriveMicroShapes(e *microEnv, st *graph.Stats) {
	triples := st.FrequentTriples(1)
	t0 := triples[0]
	e.parent = pattern.SingleEdge(t0.SrcLabel, t0.EdgeLabel, t0.DstLabel)
	e.pivotLabel = t0.SrcLabel
	// Extend at the destination with a triple leaving its label, falling
	// back to the most frequent triple when none chains.
	t1 := t0
	for _, t := range triples {
		if t.SrcLabel == t0.DstLabel {
			t1 = t
			break
		}
	}
	e.child = e.parent.ExtendNewNode(1, t1.EdgeLabel, t1.DstLabel, true)
	gamma := st.TopAttributes(2)
	e.constAttr = gamma[0]
	e.varAttr = gamma[len(gamma)-1]
	if vals := st.TopValues(e.constAttr, 1); len(vals) > 0 {
		e.constVal = vals[0]
	}
}

// levelTwoChildren returns the 2-edge patterns grown from g's σ-frequent
// single-edge patterns by one more σ-frequent edge, outgoing or incoming,
// at either variable: the concrete new-node children of VSpawn's second
// level.
func levelTwoChildren(g graph.View, sigma int) []*pattern.Pattern {
	ts := graph.NewStats(g).FrequentTriples(sigma)
	var out []*pattern.Pattern
	for _, t := range ts {
		p := pattern.SingleEdge(t.SrcLabel, t.EdgeLabel, t.DstLabel)
		for v, l := range p.NodeLabels {
			for _, u := range ts {
				if u.SrcLabel == l {
					out = append(out, p.ExtendNewNode(v, u.EdgeLabel, u.DstLabel, true))
				}
				if u.DstLabel == l {
					out = append(out, p.ExtendNewNode(v, u.EdgeLabel, u.SrcLabel, false))
				}
			}
		}
	}
	return out
}

// MicroSpecs returns the micro-benchmark suite, the distributed-runtime
// micros (remote_micro.go) included.
func MicroSpecs() []MicroSpec {
	specs := []MicroSpec{
		{"PivotNodes/full", func(b *testing.B) {
			e := microWorkload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(match.PivotNodes(e.g, e.child)) == 0 {
					b.Fatal("no pivots")
				}
			}
		}},
		{"PivotNodes/fragment-n4", func(b *testing.B) {
			e := microWorkload()
			pl := match.PlanFor(e.frag, e.child)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fragment pivot sets may legitimately be empty; the cost of
				// discovering that is exactly the per-worker cost measured.
				pl.PivotNodes()
			}
		}},
		{"ExtendRows/full", func(b *testing.B) {
			e := microWorkload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if match.ExtendRows(e.g, e.t1, e.child).Len() == 0 {
					b.Fatal("empty extension")
				}
			}
		}},
		{"ExtendRows/worker-n4", func(b *testing.B) {
			// One ParDis worker's share of the level's join: its rows
			// against its fragment index plus the received fragments.
			e := microWorkload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match.ExtendRowsViews(e.views, e.part, e.child)
			}
		}},
		{"ExtendRows/skew-batched", func(b *testing.B) {
			// The run-batched kernel on its target shape: long equal-anchor
			// runs from power-law hubs, candidates gathered once per run.
			g, t1, child := skewWorkload()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if match.ExtendRows(g, t1, child).Len() == 0 {
					b.Fatal("empty skew extension")
				}
			}
		}},
		{"ExtendRows/closing-batch", func(b *testing.B) {
			// All closing-edge children of one worker's parent part in one
			// call over two spilled fragments: the closing groups' shape.
			views, part, children := closingWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(match.ExtendRowsViewsBatch(views, part, children)) != len(children) {
					b.Fatal("closing batch lost a child")
				}
			}
		}},
		{"TableSupport", func(b *testing.B) {
			e := microWorkload()
			t2 := e.t2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t2.Support() == 0 {
					b.Fatal("no support")
				}
			}
		}},
		{"SatRows/const", func(b *testing.B) {
			// One constant-literal satisfaction scan over the level-2 table:
			// the per-literal bitset fill of HSpawn's candidate validation.
			e := microWorkload()
			lit := core.Const(0, e.constAttr, e.constVal)
			bs := bitset.New(e.t2.Len())
			set := bs.Set
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.SatRows(e.g, e.t2, lit, set)
			}
		}},
		{"SatRows/var", func(b *testing.B) {
			// Variable literal x0.origin = x2.origin: two attribute columns
			// compared per row.
			e := microWorkload()
			lit := core.Vars(0, e.varAttr, 2, e.varAttr)
			bs := bitset.New(e.t2.Len())
			set := bs.Set
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.SatRows(e.g, e.t2, lit, set)
			}
		}},
		{"Constants/count", func(b *testing.B) {
			// Counting the observed values of one (variable, attribute) pair
			// over the table — the per-pair unit of Backend.Constants: a
			// column scan into the reusable dense ValueID scratch (the
			// map-based era built a map[string]int per pair here).
			e := microWorkload()
			vc := discovery.NewValueCounter(e.g.NumValues())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				discovery.ObservedValueCounts(e.g, e.t2, 0, e.constAttr, vc)
				vc.Reset()
			}
		}},
		{"Constants/top", func(b *testing.B) {
			// Ranking the 5 most frequent of 2,500 distinct values whose
			// counts mostly tie — the size of the largest (variable,
			// attribute) slot the ParDis master ranks on yago2-k3-pardis.
			// Each op re-adds the counts, since Top resets the counter.
			const distinct = 2500
			names := make([]string, distinct)
			for i, j := range rand.New(rand.NewSource(42)).Perm(distinct) {
				names[i] = fmt.Sprintf("value-%05d", j)
			}
			name := func(v graph.ValueID) string { return names[v] }
			vc := discovery.NewValueCounter(distinct)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for v := 0; v < distinct; v++ {
					vc.Add(graph.ValueID(v), 1+v%3)
				}
				if len(vc.Top(5, name)) != 5 {
					b.Fatal("short top list")
				}
			}
		}},
		{"Pattern/CanonicalCode", func(b *testing.B) {
			// One uncached pivoted canonical code per op, over the 2-edge
			// children VSpawn grows from DBpediaSim 100's σ-frequent
			// edges. Each op codes a fresh clone, so the cache never
			// answers.
			ps := levelTwoChildren(dataset.DBpediaSim(100, 42), 25)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ps[i%len(ps)].Clone().CanonicalCode() == "" {
					b.Fatal("empty code")
				}
			}
		}},
		{"Cover/generated", func(b *testing.B) {
			// SeqCover over 300 generated k = 3 GFDs on YAGO2Sim(100, 5),
			// the set TestCoverMatchesReference checks: grouping, each
			// group's compiled chase, and its member tests.
			sigma := dataset.GenGFDs(dataset.YAGO2Sim(100, 5), dataset.GFDGenConfig{Count: 300, K: 3, Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(discovery.Cover(sigma)) == len(sigma) {
					b.Fatal("the cover removed nothing")
				}
			}
		}},
		{"HSpawn/mine-level1", func(b *testing.B) {
			// End-to-end single-level mine: seeding, one VSpawn level, and the
			// full HSpawn literal lattice (Constants, SatRows indexing,
			// candidate validation) over every verified pattern.
			g := dataset.DBpediaSim(500, 42)
			opts := discovery.Options{
				K: 2, Support: 12, ConstantsPerAttr: 5, MaxX: 1,
				MaxLevels: 1, MaxNegatives: 200,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(discovery.Mine(g, opts).Positives) == 0 {
					b.Fatal("no GFDs mined")
				}
			}
		}},
		{"HSpawn/mine-level1-skew", func(b *testing.B) {
			// The same end-to-end mine over a hub-heavy power-law graph:
			// level extensions are dominated by a few huge parent tables,
			// the shape where the work-stealing level pool pays off.
			g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: 500, Edges: 4000, Seed: 42, Skew: 1.3})
			opts := discovery.Options{
				K: 2, Support: 8, ConstantsPerAttr: 5, MaxX: 1,
				MaxLevels: 1, MaxNegatives: 200,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(discovery.Mine(g, opts).Positives) == 0 {
					b.Fatal("no GFDs mined")
				}
			}
		}},
		{"HSpawn/mine-level2", func(b *testing.B) {
			// Two levels over DBpediaSim, whose Γ columns are all dense: the
			// literal lattice of the 2-edge patterns dominates, so candidate
			// validation and support counting carry the time.
			g := dataset.DBpediaSim(150, 42)
			opts := discovery.Options{
				K: 3, Support: 12, ConstantsPerAttr: 5, MaxX: 1,
				MaxLevels: 2, MaxNegatives: 200,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(discovery.Mine(g, opts).Positives) == 0 {
					b.Fatal("no GFDs mined")
				}
			}
		}},
		{"HSpawn/mine-level1-yago2", func(b *testing.B) {
			// One level over YAGO2Sim, where two Γ columns (genre, type) are
			// sparse: their literals read columns the miner projects to the
			// dense layout once per run.
			g := dataset.YAGO2Sim(300, 1)
			opts := discovery.Options{
				K: 2, Support: 10, ConstantsPerAttr: 5, MaxX: 1,
				MaxLevels: 1, MaxNegatives: 200,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(discovery.Mine(g, opts).Positives) == 0 {
					b.Fatal("no GFDs mined")
				}
			}
		}},
		{"HSpawn/pardis-level2-n2", func(b *testing.B) {
			// Two levels of ParDis over YAGO2Sim on two concurrent workers
			// with load balancing: each pattern's index superstep builds the
			// single-literal tables the literal trees then read.
			g := dataset.YAGO2Sim(300, 1)
			opts := discovery.Options{
				K: 3, Support: 10, ConstantsPerAttr: 5, MaxX: 1,
				MaxLevels: 2, MaxNegatives: 200,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := cluster.New(cluster.Config{Workers: 2, Mode: cluster.Concurrent})
				if len(parallel.Mine(context.Background(), g, opts, eng, parallel.Options{LoadBalance: true}).Positives) == 0 {
					b.Fatal("no GFDs mined")
				}
			}
		}},
		{"MatchesAt", func(b *testing.B) {
			e := microWorkload()
			var cands []graph.NodeID
			if l, ok := e.g.LookupLabel(e.pivotLabel); ok {
				cands = e.g.NodesByLabelID(l)
			}
			if len(cands) == 0 {
				b.Skipf("no %q nodes in micro input", e.pivotLabel)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match.MatchesAt(e.g, e.child, cands[i%len(cands)], func(match.Match) bool { return true })
			}
		}},
		{"Enumerate/selectivity-order", func(b *testing.B) {
			e := microWorkload()
			pl := match.Compile(e.g, e.child)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.CountMatches(0)
			}
		}},
		{"LoadTSV", func(b *testing.B) {
			// Parsing the micro graph from TSV: the full per-process index
			// (re)build cost a snapshot removes — line scan, interning, CSR
			// compile, attribute-column compile.
			e := microWorkload()
			e.loadSurfaces(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := graph.Read(bytes.NewReader(e.tsv))
				if err != nil || g.NumNodes() != e.g.NumNodes() {
					b.Fatalf("LoadTSV: %v", err)
				}
			}
		}},
		{"SnapshotOpen", func(b *testing.B) {
			// Opening the same graph from its binary snapshot: mmap + the
			// checked decoder's validation scan, zero copies, zero rebuild.
			// The snapshot-vs-TSV speedup is this number against LoadTSV.
			e := microWorkload()
			e.loadSurfaces(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := store.Open(e.snapPath)
				if err != nil || m.NumNodes() != e.g.NumNodes() {
					b.Fatalf("SnapshotOpen: %v", err)
				}
				m.Close()
			}
		}},
		{"SnapshotWrite", func(b *testing.B) {
			// Serialising the micro graph: straight dumps of the flat
			// arrays plus the symbol pools.
			e := microWorkload()
			src := e.g.(store.Source)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := store.Write(io.Discard, src); err != nil {
					b.Fatalf("SnapshotWrite: %v", err)
				}
			}
		}},
	}
	return append(specs, remoteMicroSpecs()...)
}

// CleanupMicro removes the temp snapshot file the workload wrote for the
// SnapshotOpen micro and tears down the remote micros' loopback server.
// Call it once after the last benchmark (gfdbench does on every exit
// path; the root benchmark TestMain does for go test -bench runs); it is
// safe to call when nothing ran.
func CleanupMicro() {
	if microE.snapPath != "" {
		os.Remove(microE.snapPath)
		microE.snapPath = ""
	}
	cleanupRemoteMicro()
	if closingAtt != nil {
		closingAtt.Close()
		closingAtt = nil
	}
	if closingDir != "" {
		os.RemoveAll(closingDir)
		closingDir = ""
	}
}

// Micro runs the whole suite via testing.Benchmark and returns the
// measurements, for gfdbench -json.
func Micro() []MicroResult {
	specs := MicroSpecs()
	out := make([]MicroResult, 0, len(specs))
	for _, s := range specs {
		r := testing.Benchmark(s.Fn)
		out = append(out, MicroResult{
			Name:        s.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out
}
