package parallel

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// rulesGraph builds a graph with seeded positive and negative regularities
// large enough to exercise multiple levels and several workers.
func rulesGraph(n int) *graph.Graph {
	g := graph.New(5*n, 3*n)
	for i := 0; i < n; i++ {
		p := g.AddNode("person", map[string]string{"type": "producer", "country": "FR"})
		f := g.AddNode("product", map[string]string{"type": "film"})
		g.AddEdge(p, f, "create")
		j := g.AddNode("person", map[string]string{"type": "jumper", "country": "US"})
		s := g.AddNode("product", map[string]string{"type": "song"})
		g.AddEdge(j, s, "create")
		c := g.AddNode("person", map[string]string{"type": "child"})
		g.AddEdge(p, c, "parent")
	}
	g.Finalize()
	return g
}

func TestVertexCut(t *testing.T) {
	g := rulesGraph(10)
	maxOutDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(graph.NodeID(v)); d > maxOutDeg {
			maxOutDeg = d
		}
	}
	for _, n := range []int{1, 2, 4, 7} {
		frags := VertexCut(g, n)
		if len(frags) != n {
			t.Fatalf("n=%d: %d fragments", n, len(frags))
		}
		// Edges are partitioned: disjoint and complete.
		total := 0
		seen := make(map[graph.IEdge]int)
		for _, f := range frags {
			total += f.EdgeCount()
			graph.ViewEdges(f.Sub, func(e graph.IEdge) bool {
				seen[e]++
				return true
			})
		}
		if total != g.NumEdges() {
			t.Fatalf("n=%d: %d edges in fragments, graph has %d", n, total, g.NumEdges())
		}
		for e, c := range seen {
			if c != 1 {
				t.Fatalf("edge %v in %d fragments", e, c)
			}
		}
		// Edge-balanced up to the contiguity constraint: a fragment never
		// exceeds its quota by more than one source node's whole run block
		// (hub runs are kept contiguous on purpose).
		per := (g.NumEdges() + n - 1) / n
		for _, f := range frags {
			if f.EdgeCount() > per+maxOutDeg {
				t.Fatalf("n=%d: fragment of %d edges exceeds per-worker %d + max out-degree %d",
					n, f.EdgeCount(), per, maxOutDeg)
			}
		}
		// Fragments hold contiguous source ranges aligned with ownership:
		// every fragment edge's source is an owned node.
		for _, f := range frags {
			graph.ViewEdges(f.Sub, func(e graph.IEdge) bool {
				if !f.OwnsNode(e.Src) {
					t.Fatalf("n=%d: worker %d holds edge with unowned source %d (owns [%d,%d))",
						n, f.Worker, e.Src, f.NodeLo, f.NodeHi)
				}
				return true
			})
		}
		// Node ownership covers every node exactly once (consecutive ranges).
		owned := 0
		for w, f := range frags {
			owned += int(f.NodeHi - f.NodeLo)
			if w > 0 && frags[w-1].NodeHi != f.NodeLo {
				t.Fatalf("n=%d: ownership gap between workers %d and %d", n, w-1, w)
			}
		}
		if owned != g.NumNodes() {
			t.Fatalf("n=%d: %d owned nodes of %d", n, owned, g.NumNodes())
		}
	}
}

func keysOf(ms []discovery.Mined) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.GFD.Key()
	}
	sort.Strings(out)
	return out
}

func equalKeySets(t *testing.T, name string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d GFDs\nA=%v\nB=%v", name, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: key mismatch at %d: %s vs %s", name, i, a[i], b[i])
		}
	}
}

// TestParallelEqualsSequential is the correctness core of ParDis: for any
// worker count, the parallel miner must produce exactly the GFDs the
// sequential miner does, with identical supports.
func TestParallelEqualsSequential(t *testing.T) {
	g := rulesGraph(8)
	opts := discovery.Options{K: 3, Support: 4, WildcardNodes: true}
	seq := discovery.Mine(g, opts)
	for _, n := range []int{1, 2, 3, 5, 8} {
		eng := cluster.New(cluster.Config{Workers: n})
		par := Mine(context.Background(), g, opts, eng, Options{LoadBalance: true})
		equalKeySets(t, "positives", keysOf(seq.Positives), keysOf(par.Positives))
		equalKeySets(t, "negatives", keysOf(seq.Negatives), keysOf(par.Negatives))
		// Supports must agree too.
		seqSupp := make(map[string]int)
		for _, m := range seq.Positives {
			seqSupp[m.GFD.Key()] = m.Support
		}
		for _, m := range par.Positives {
			if seqSupp[m.GFD.Key()] != m.Support {
				t.Fatalf("n=%d: support mismatch for %s: %d vs %d",
					n, m.GFD, seqSupp[m.GFD.Key()], m.Support)
			}
		}
	}
}

func TestParallelNoBalanceStillCorrect(t *testing.T) {
	g := rulesGraph(6)
	opts := discovery.Options{K: 2, Support: 3}
	seq := discovery.Mine(g, opts)
	eng := cluster.New(cluster.Config{Workers: 4})
	par := Mine(context.Background(), g, opts, eng, Options{LoadBalance: false})
	equalKeySets(t, "positives", keysOf(seq.Positives), keysOf(par.Positives))
}

// TestLoadBalanceReducesSkew: on a hub-heavy graph, locality partitioning
// concentrates matches on one worker; rebalancing must spread them. The
// assertion is on the per-worker row distribution itself (deterministic)
// rather than on measured busy-time skew, which at this scale is dominated
// by timer noise.
func TestLoadBalanceReducesSkew(t *testing.T) {
	// One hub with many spokes: every hub edge lands in the first fragment,
	// and the hub seed row is owned by worker 0, so the extension's 100
	// rows all materialise there.
	g := graph.New(101, 100)
	hub := g.AddNode("hub", map[string]string{"a": "1"})
	for i := 0; i < 100; i++ {
		s := g.AddNode("spoke", map[string]string{"a": "1"})
		g.AddEdge(hub, s, "link")
	}
	g.Finalize()

	partSizes := func(lb bool) []int {
		eng := cluster.New(cluster.Config{Workers: 4})
		b := NewBackend(g, eng, Options{LoadBalance: lb}, nil)
		seed := b.SeedBatch([]*pattern.Pattern{pattern.SingleNode("hub")})
		child := pattern.SingleNode("hub").ExtendNewNode(0, "link", "spoke", true)
		outs := b.ExtendBatch([]discovery.Handle{seed[0].H}, []*pattern.Pattern{child})
		h := outs[0].H.(*parHandle)
		sizes := make([]int, len(h.parts))
		total := 0
		for w, part := range h.parts {
			sizes[w] = part.Len()
			total += part.Len()
		}
		if total != 100 {
			t.Fatalf("lb=%v: %d rows in parts, want 100", lb, total)
		}
		return sizes
	}

	unbalanced := partSizes(false)
	if unbalanced[0] != 100 {
		t.Fatalf("expected all rows on worker 0 without balancing: %v", unbalanced)
	}
	balanced := partSizes(true)
	target := 25 // ceil(100 rows / 4 workers)
	for w, n := range balanced {
		if n > target {
			t.Fatalf("worker %d holds %d rows after rebalance (target %d): %v",
				w, n, target, balanced)
		}
	}
}

func TestClusterStatsPopulated(t *testing.T) {
	g := rulesGraph(5)
	eng := cluster.New(cluster.Config{Workers: 3})
	res := Mine(context.Background(), g, discovery.Options{K: 2, Support: 3}, eng, Options{LoadBalance: true})
	cs := res.Cluster
	if cs.Supersteps == 0 || cs.ComputeTime == 0 || cs.Bytes == 0 {
		t.Fatalf("cluster stats look empty: %+v", cs)
	}
	if len(res.Positives) == 0 {
		t.Fatal("no positives mined")
	}
}

func coverKeys(gs []*core.GFD) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Key()
	}
	sort.Strings(out)
	return out
}

func TestParCoverEqualsSeqCover(t *testing.T) {
	g := rulesGraph(8)
	opts := discovery.Options{K: 3, Support: 4, WildcardNodes: true}
	res := discovery.Mine(g, opts)
	sigma := res.All()
	seqCover := discovery.Cover(sigma)
	for _, n := range []int{1, 2, 4} {
		eng := cluster.New(cluster.Config{Workers: n})
		pc := Cover(sigma, eng)
		a, b := coverKeys(seqCover), coverKeys(pc.Cover)
		if len(a) != len(b) {
			t.Fatalf("n=%d: cover sizes differ: seq=%d par=%d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: cover differs at %d: %s vs %s", n, i, a[i], b[i])
			}
		}
		if pc.Groups == 0 {
			t.Fatal("no groups formed")
		}
	}
}

// TestParCoverEquivalence: whatever the mode, the cover must be equivalent
// to Σ (every removed GFD implied by the cover) and minimal.
func TestParCoverEquivalence(t *testing.T) {
	g := rulesGraph(6)
	res := discovery.Mine(g, discovery.Options{K: 2, Support: 3, WildcardNodes: true})
	sigma := res.All()
	for _, grouping := range []bool{true, false} {
		eng := cluster.New(cluster.Config{Workers: 3})
		cover := Cover
		if !grouping {
			cover = CoverUngrouped
		}
		pc := cover(sigma, eng)
		for _, phi := range sigma {
			inCover := false
			for _, psi := range pc.Cover {
				if psi.Key() == phi.Key() {
					inCover = true
					break
				}
			}
			if !inCover && !core.Implies(pc.Cover, phi) {
				t.Fatalf("grouping=%v: removed GFD not implied by cover: %s", grouping, phi)
			}
		}
		for i, phi := range pc.Cover {
			rest := make([]*core.GFD, 0, len(pc.Cover)-1)
			rest = append(rest, pc.Cover[:i]...)
			rest = append(rest, pc.Cover[i+1:]...)
			if core.Implies(rest, phi) {
				t.Fatalf("grouping=%v: cover not minimal: %s is redundant", grouping, phi)
			}
		}
	}
}

// TestParCoverConcurrentWorkers: grouped ParImp with its workers running
// as goroutines, each chasing on its own Implier over patterns they all
// read, returns SeqCover's cover. Run it under -race.
func TestParCoverConcurrentWorkers(t *testing.T) {
	g := rulesGraph(8)
	res := discovery.Mine(g, discovery.Options{K: 3, Support: 4, WildcardNodes: true})
	generated := dataset.GenGFDs(dataset.YAGO2Sim(100, 5), dataset.GFDGenConfig{Count: 300, K: 3, Seed: 17})
	for _, sigma := range [][]*core.GFD{res.All(), generated} {
		want := coverKeys(discovery.Cover(sigma))
		eng := cluster.New(cluster.Config{Workers: 4, Mode: cluster.Concurrent})
		got := coverKeys(Cover(sigma, eng).Cover)
		if len(got) != len(want) {
			t.Fatalf("|Σ|=%d: cover sizes differ: seq=%d par=%d", len(sigma), len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("|Σ|=%d: cover differs at %d: %s vs %s", len(sigma), i, want[i], got[i])
			}
		}
	}
}

func TestParCovernSlowerThanParCover(t *testing.T) {
	// Grouping pays off at scale (the paper's Fig. 5(i)-(l) settings run
	// |Σ| in the thousands): use a generated rule set like Fig. 5(l) does.
	g := dataset.YAGO2Sim(100, 5)
	sigma := dataset.GenGFDs(g, dataset.GFDGenConfig{Count: 1200, K: 3, Seed: 17})
	engG := cluster.New(cluster.Config{Workers: 4})
	pcG := Cover(sigma, engG)
	engN := cluster.New(cluster.Config{Workers: 4})
	pcN := CoverUngrouped(sigma, engN)
	if pcG.CoverTime() >= pcN.CoverTime() {
		t.Fatalf("grouping should be faster: grouped=%v ungrouped=%v (|Σ|=%d)",
			pcG.CoverTime(), pcN.CoverTime(), len(sigma))
	}
	// Minimal covers are not unique, but their sizes should be close; a
	// large gap would indicate one mode removing unsoundly.
	lo, hi := len(pcG.Cover), len(pcN.Cover)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*5 < hi*4 { // more than 25% apart
		t.Fatalf("cover sizes far apart: grouped=%d ungrouped=%d", len(pcG.Cover), len(pcN.Cover))
	}
}

func TestDisGFDPipeline(t *testing.T) {
	g := rulesGraph(8)
	mineEng := cluster.New(cluster.Config{Workers: 4})
	coverEng := cluster.New(cluster.Config{Workers: 4})
	res := DisGFD(context.Background(), g, discovery.Options{K: 2, Support: 4}, mineEng, coverEng, Options{LoadBalance: true})
	if len(res.Sigma) == 0 {
		t.Fatal("pipeline produced empty cover")
	}
	if len(res.Sigma) > len(res.Mine.Positives)+len(res.Mine.Negatives) {
		t.Fatal("cover larger than mined set")
	}
	if res.Cover.Cluster.Supersteps == 0 {
		t.Fatal("cover cluster stats empty")
	}
}

// TestParallelScalability: the simulated compute makespan (Σ per-superstep
// max worker busy time) must fall as workers increase — Theorem 5's
// observable consequence. Compute is the component that scales with n; the
// round-latency charge is a per-superstep constant independent of n, and
// since the CSR/compiled-plan matcher it dominates Total() at this test's
// scale, so the assertion targets ComputeTime. Each configuration takes the
// minimum of three runs to shed wall-clock measurement noise.
func TestParallelScalability(t *testing.T) {
	g := rulesGraph(300)
	opts := discovery.Options{K: 3, Support: 50, WildcardNodes: true}
	measure := func(workers int) time.Duration {
		var best time.Duration
		for i := 0; i < 3; i++ {
			c := Mine(context.Background(), g, opts, cluster.New(cluster.Config{Workers: workers}), Options{LoadBalance: true}).Cluster
			if i == 0 || c.ComputeTime < best {
				best = c.ComputeTime
			}
		}
		return best
	}
	t4, t16 := measure(4), measure(16)
	if t16 >= t4 {
		t.Fatalf("no compute speedup: 4 workers %v, 16 workers %v", t4, t16)
	}
}

func TestEdgeMatchBytes(t *testing.T) {
	g := rulesGraph(4)
	eng := cluster.New(cluster.Config{Workers: 2})
	b := NewBackend(g, eng, Options{}, nil)
	child := pattern.SingleEdge("person", "create", "product")
	bytes := b.edgeMatchBytes(child)
	if bytes != int64(8*12) { // 8 create edges between person and product
		t.Fatalf("edgeMatchBytes = %d, want %d", bytes, 8*12)
	}
	// Wildcard aggregates across triples.
	wc := pattern.SingleEdge("person", "create", pattern.Wildcard)
	if got := b.edgeMatchBytes(wc); got != int64(8*12) {
		t.Fatalf("wildcard edgeMatchBytes = %d", got)
	}
	all := pattern.SingleEdge(pattern.Wildcard, pattern.Wildcard, pattern.Wildcard)
	if got := b.edgeMatchBytes(all); got != int64(g.NumEdges()*12) {
		t.Fatalf("all-wildcard edgeMatchBytes = %d, want %d", got, g.NumEdges()*12)
	}
}

// countdownCtx is a context whose Err flips to Canceled after its Err
// method has been consulted n times — a deterministic mid-mine
// cancellation point, independent of timing.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestMineCancellation(t *testing.T) {
	g := rulesGraph(20)
	opts := discovery.Options{K: 3, Support: 2, WildcardNodes: true}

	full := Mine(context.Background(), g, opts, cluster.New(cluster.Config{Workers: 4}), Options{LoadBalance: true})
	if full.Stats.Cancelled {
		t.Fatal("uncancelled run reported Cancelled")
	}

	// Cancelled before the first superstep: nothing is mined, and the run
	// still terminates cleanly.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res := Mine(pre, g, opts, cluster.New(cluster.Config{Workers: 4}), Options{LoadBalance: true})
	if !res.Stats.Cancelled {
		t.Fatal("pre-cancelled run did not report Cancelled")
	}
	if n := len(res.All()); n != 0 {
		t.Fatalf("pre-cancelled run mined %d GFDs", n)
	}

	// Cancelled mid-run: the backend stops at a superstep boundary, so the
	// result is a prefix of the full run — never garbage, never a hang.
	mid := Mine(&countdownCtx{Context: context.Background(), remaining: 2}, g, opts,
		cluster.New(cluster.Config{Workers: 4}), Options{LoadBalance: true})
	if !mid.Stats.Cancelled {
		t.Fatal("mid-run cancellation did not report Cancelled")
	}
	if len(mid.All()) >= len(full.All()) && len(full.All()) > 0 {
		t.Fatalf("cancelled run mined %d GFDs, full run %d — cancellation did nothing", len(mid.All()), len(full.All()))
	}
}
