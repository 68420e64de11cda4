package discovery

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// producersGraph seeds a graph where producers create films and jumpers
// create songs — the φ1 regularity of Example 1: y.type=film → x.type=producer.
func producersGraph(n int) *graph.Graph {
	g := graph.New(4*n, 2*n)
	for i := 0; i < n; i++ {
		p := g.AddNode("person", map[string]string{"type": "producer"})
		f := g.AddNode("product", map[string]string{"type": "film"})
		g.AddEdge(p, f, "create")
		j := g.AddNode("person", map[string]string{"type": "jumper"})
		s := g.AddNode("product", map[string]string{"type": "song"})
		g.AddEdge(j, s, "create")
	}
	g.Finalize()
	return g
}

func findGFD(ms []Mined, pred func(*core.GFD) bool) *Mined {
	for i := range ms {
		if pred(ms[i].GFD) {
			return &ms[i]
		}
	}
	return nil
}

func TestMineSingleNodeInvariant(t *testing.T) {
	// Every person carries species=human: expect Q[x:person](∅ → x.species=human).
	g := graph.New(6, 0)
	for i := 0; i < 6; i++ {
		g.AddNode("person", map[string]string{"species": "human"})
	}
	g.Finalize()
	res := Mine(g, Options{K: 2, Support: 3, WildcardNodes: false})
	m := findGFD(res.Positives, func(phi *core.GFD) bool {
		return phi.Q.N() == 1 && len(phi.X) == 0 &&
			phi.RHS.Equal(core.Const(0, "species", "human"))
	})
	if m == nil {
		t.Fatalf("single-node invariant not mined; got %d positives", len(res.Positives))
	}
	if m.Support != 6 {
		t.Fatalf("support = %d, want 6", m.Support)
	}
}

func TestMinePhi1LikeRule(t *testing.T) {
	g := producersGraph(5)
	res := Mine(g, Options{K: 2, Support: 3, WildcardNodes: false})
	// The φ1 regularity must be found: on pattern person-create->product,
	// X={x1.type=film} → x0.type=producer.
	m := findGFD(res.Positives, func(phi *core.GFD) bool {
		if phi.Q.Size() != 1 || phi.Q.N() != 2 {
			return false
		}
		return core.ContainsLiteral(phi.X, core.Const(1, "type", "film")) &&
			phi.RHS.Equal(core.Const(0, "type", "producer"))
	})
	if m == nil {
		var got []string
		for _, p := range res.Positives {
			got = append(got, p.GFD.String())
		}
		t.Fatalf("φ1-like rule not mined; positives:\n%s", strings.Join(got, "\n"))
	}
	if m.Support != 5 {
		t.Fatalf("φ1 support = %d, want 5", m.Support)
	}
	// Everything mined must actually hold on g.
	for _, p := range res.Positives {
		if !eval.Validate(g, p.GFD) {
			t.Fatalf("mined GFD violated by its own graph: %s", p.GFD)
		}
	}
}

func TestMineNegativeStructure(t *testing.T) {
	// parent edges, never reciprocated: expect the φ3 negative (2-cycle → false).
	g := graph.New(8, 4)
	for i := 0; i < 4; i++ {
		a := g.AddNode("person", map[string]string{"name": "p"})
		b := g.AddNode("person", map[string]string{"name": "q"})
		g.AddEdge(a, b, "parent")
	}
	g.Finalize()
	res := Mine(g, Options{K: 2, Support: 2, WildcardNodes: false})
	m := findGFD(res.Negatives, func(phi *core.GFD) bool {
		if !phi.IsNegative() || len(phi.X) != 0 || phi.Q.Size() != 2 {
			return false
		}
		return phi.Q.HasEdge(0, 1, "parent") && phi.Q.HasEdge(1, 0, "parent")
	})
	if m == nil {
		var got []string
		for _, p := range res.Negatives {
			got = append(got, p.GFD.String())
		}
		t.Fatalf("structural negative not mined; negatives:\n%s", strings.Join(got, "\n"))
	}
	if m.Support < 2 {
		t.Fatalf("negative base support = %d, want >= σ", m.Support)
	}
}

func TestMineNegativeLiteral(t *testing.T) {
	// Group A: a=1,b=3; group B: a=2,b=2. The combination a=1 ∧ b=2 never
	// occurs: expect Q[x:person]({a=1, b=2} → false) via NHSpawn, whose base
	// is the verified frequent positive ({a=1} → b=3).
	g := graph.New(8, 0)
	for i := 0; i < 4; i++ {
		g.AddNode("person", map[string]string{"a": "1", "b": "3"})
		g.AddNode("person", map[string]string{"a": "2", "b": "2"})
	}
	g.Finalize()
	res := Mine(g, Options{K: 1, Support: 2, WildcardNodes: false})
	base := findGFD(res.Positives, func(phi *core.GFD) bool {
		return len(phi.X) == 1 && core.ContainsLiteral(phi.X, core.Const(0, "a", "1")) &&
			phi.RHS.Equal(core.Const(0, "b", "3"))
	})
	if base == nil {
		t.Fatal("base positive ({a=1} → b=3) not mined")
	}
	neg := findGFD(res.Negatives, func(phi *core.GFD) bool {
		return phi.IsNegative() && len(phi.X) == 2 &&
			core.ContainsLiteral(phi.X, core.Const(0, "a", "1")) &&
			core.ContainsLiteral(phi.X, core.Const(0, "b", "2"))
	})
	if neg == nil {
		var got []string
		for _, p := range res.Negatives {
			got = append(got, p.GFD.String())
		}
		t.Fatalf("literal negative not mined; negatives:\n%s", strings.Join(got, "\n"))
	}
	if neg.Support != base.Support {
		t.Fatalf("negative support %d must equal base support %d", neg.Support, base.Support)
	}
}

func TestMineWildcardVariableOnlyRule(t *testing.T) {
	// GFD1 of Section 7: children inherit the family name, across two
	// different node labels — only a wildcard pattern captures both.
	g := graph.New(12, 6)
	fams := []string{"smith", "jones", "lee"}
	labels := []string{"person", "artist"}
	for i := 0; i < 6; i++ {
		f := fams[i%3]
		p := g.AddNode(labels[i%2], map[string]string{"familyname": f})
		c := g.AddNode(labels[(i+1)%2], map[string]string{"familyname": f})
		g.AddEdge(p, c, "hasChild")
	}
	g.Finalize()
	res := Mine(g, Options{K: 2, Support: 4, WildcardNodes: true})
	m := findGFD(res.Positives, func(phi *core.GFD) bool {
		if phi.Q.Size() != 1 || len(phi.X) != 0 {
			return false
		}
		if phi.Q.NodeLabels[0] != pattern.Wildcard || phi.Q.NodeLabels[1] != pattern.Wildcard {
			return false
		}
		return phi.RHS.Equal(core.Vars(0, "familyname", 1, "familyname"))
	})
	if m == nil {
		var got []string
		for _, p := range res.Positives {
			got = append(got, p.GFD.String())
		}
		t.Fatalf("wildcard variable-only rule not mined; positives:\n%s", strings.Join(got, "\n"))
	}
	if m.Support != 6 {
		t.Fatalf("support = %d, want 6 parent pivots", m.Support)
	}
	// Concrete specialisations (person-hasChild->artist etc.) are reduced
	// by the wildcard rule and must not appear.
	spec := findGFD(res.Positives, func(phi *core.GFD) bool {
		return phi.Q.Size() == 1 && phi.Q.NodeLabels[0] == "person" &&
			phi.RHS.Equal(core.Vars(0, "familyname", 1, "familyname")) && len(phi.X) == 0
	})
	if spec != nil {
		t.Fatalf("non-minimum concrete specialisation mined: %s", spec.GFD)
	}
}

func TestLeftReducedNoSupersets(t *testing.T) {
	// ∅ → b=1 holds for all persons; {a=1} → b=1 must not be emitted.
	g := graph.New(6, 0)
	for i := 0; i < 6; i++ {
		a := "1"
		if i%2 == 0 {
			a = "2"
		}
		g.AddNode("person", map[string]string{"a": a, "b": "1"})
	}
	g.Finalize()
	res := Mine(g, Options{K: 1, Support: 2, WildcardNodes: false})
	bad := findGFD(res.Positives, func(phi *core.GFD) bool {
		return len(phi.X) > 0 && phi.RHS.Equal(core.Const(0, "b", "1"))
	})
	if bad != nil {
		t.Fatalf("non-left-reduced GFD mined: %s", bad.GFD)
	}
	good := findGFD(res.Positives, func(phi *core.GFD) bool {
		return len(phi.X) == 0 && phi.RHS.Equal(core.Const(0, "b", "1"))
	})
	if good == nil {
		t.Fatal("the reduced rule ∅ → b=1 is missing")
	}
}

func TestSupportThresholdRespected(t *testing.T) {
	g := producersGraph(3) // φ1 support is 3
	res := Mine(g, Options{K: 2, Support: 4, WildcardNodes: false})
	for _, p := range res.Positives {
		if p.Support < 4 {
			t.Fatalf("emitted GFD below σ: %s supp=%d", p.GFD, p.Support)
		}
	}
}

func TestPruningReducesWork(t *testing.T) {
	g := producersGraph(6)
	pruned := Mine(g, Options{K: 2, Support: 3, MaxX: 2, WildcardNodes: true})
	unpruned := Mine(g, Options{K: 2, Support: 3, MaxX: 2, WildcardNodes: true, DisablePruning: true})
	if unpruned.Stats.CandidatesChecked <= pruned.Stats.CandidatesChecked {
		t.Fatalf("pruning should reduce checked candidates: pruned=%d unpruned=%d",
			pruned.Stats.CandidatesChecked, unpruned.Stats.CandidatesChecked)
	}
	// Same frequent minimum positives either way (as key sets, subset
	// direction: everything pruned finds, unpruned finds too).
	keys := make(map[string]bool)
	for _, p := range unpruned.Positives {
		keys[p.GFD.Key()] = true
	}
	for _, p := range pruned.Positives {
		if !keys[p.GFD.Key()] {
			t.Fatalf("pruned run found GFD absent from unpruned run: %s", p.GFD)
		}
	}
}

func TestCandidateBudget(t *testing.T) {
	g := producersGraph(6)
	res := Mine(g, Options{K: 3, Support: 2, CandidateBudget: 10, WildcardNodes: true})
	if !res.Stats.BudgetExhausted {
		t.Fatal("budget of 10 must exhaust on this graph")
	}
	if res.Stats.CandidatesChecked > 10 {
		t.Fatalf("checked %d candidates, budget was 10", res.Stats.CandidatesChecked)
	}
}

func TestDecoupledSameCover(t *testing.T) {
	g := producersGraph(5)
	integrated := Mine(g, Options{K: 2, Support: 3})
	decoupled := Mine(g, Options{K: 2, Support: 3, Decoupled: true})
	ci := Cover(resultGFDs(integrated.Positives))
	cd := Cover(resultGFDs(decoupled.Positives))
	if len(ci) != len(cd) {
		t.Fatalf("covers differ: integrated %d vs decoupled %d", len(ci), len(cd))
	}
	keys := make(map[string]bool)
	for _, g := range ci {
		keys[g.Key()] = true
	}
	for _, g := range cd {
		if !keys[g.Key()] {
			t.Fatalf("decoupled cover has extra GFD: %s", g)
		}
	}
}

func resultGFDs(ms []Mined) []*core.GFD {
	out := make([]*core.GFD, len(ms))
	for i, m := range ms {
		out[i] = m.GFD
	}
	return out
}

func TestCoverRemovesImplied(t *testing.T) {
	q1 := pattern.SingleEdge("person", "create", "product")
	base := core.New(q1, nil, core.Const(0, "type", "producer"))
	implied := core.New(q1, []core.Literal{core.Const(1, "type", "film")}, core.Const(0, "type", "producer"))
	cov := Cover([]*core.GFD{base, implied})
	if len(cov) != 1 {
		t.Fatalf("cover size = %d, want 1", len(cov))
	}
	if cov[0].Key() != base.Key() {
		t.Fatalf("cover kept the wrong GFD: %s", cov[0])
	}
	// Wildcard rule subsumes concrete variant.
	wc := core.New(pattern.SingleNode(pattern.Wildcard), nil, core.Const(0, "k", "v"))
	conc := core.New(pattern.SingleNode("person"), nil, core.Const(0, "k", "v"))
	cov2 := Cover([]*core.GFD{conc, wc})
	if len(cov2) != 1 || cov2[0].Key() != wc.Key() {
		t.Fatalf("cover2 = %v", cov2)
	}
	// Independent GFDs all survive.
	indep := []*core.GFD{
		core.New(pattern.SingleNode("a"), nil, core.Const(0, "x", "1")),
		core.New(pattern.SingleNode("b"), nil, core.Const(0, "y", "2")),
	}
	if got := Cover(indep); len(got) != 2 {
		t.Fatalf("independent cover size = %d, want 2", len(got))
	}
	// Empty input.
	if got := Cover(nil); len(got) != 0 {
		t.Fatal("empty cover must be empty")
	}
}

func TestCoverWithStatsAndMinedCover(t *testing.T) {
	g := producersGraph(5)
	res := Mine(g, Options{K: 2, Support: 3})
	mc := MinedCover(res)
	if len(mc) == 0 {
		t.Fatal("mined cover empty")
	}
	for _, m := range mc {
		if m.GFD == nil || m.Support == 0 {
			t.Fatalf("mined cover lost metadata: %+v", m)
		}
	}
	if len(mc) > len(res.Positives)+len(res.Negatives) {
		t.Fatal("cover larger than input")
	}
}

func TestMinedOutputsAreMinimumAndValid(t *testing.T) {
	g := producersGraph(5)
	res := Mine(g, Options{K: 2, Support: 3})
	gfds := resultGFDs(res.Positives)
	for i, phi := range gfds {
		if phi.Trivial() {
			t.Fatalf("trivial GFD emitted: %s", phi)
		}
		if !eval.Validate(g, phi) {
			t.Fatalf("invalid GFD emitted: %s", phi)
		}
		if s := eval.Supp(g, phi); s != res.Positives[i].Support {
			t.Fatalf("support mismatch for %s: recorded %d, recomputed %d",
				phi, res.Positives[i].Support, s)
		}
		// No other mined GFD strictly reduces it.
		for j, psi := range gfds {
			if i != j && core.Reduces(psi, phi) {
				t.Fatalf("non-minimum GFD emitted: %s reduced by %s", phi, psi)
			}
		}
	}
	// Negatives hold on the graph too (no match satisfies X).
	for _, m := range res.Negatives {
		if !eval.Validate(g, m.GFD) {
			t.Fatalf("negative GFD violated by its own graph: %s", m.GFD)
		}
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(63) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Set/Get broken")
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	var idx []int
	b.ForEach(func(i int) { idx = append(idx, i) })
	if len(idx) != 4 || idx[0] != 0 || idx[3] != 129 {
		t.Fatalf("ForEach = %v", idx)
	}
	o := NewBitset(130)
	o.Set(63)
	o.Set(100)
	if !b.AnyAnd(o) {
		t.Fatal("AnyAnd should see bit 63")
	}
	if !b.AnyAndNot(o) {
		t.Fatal("AnyAndNot should see bit 0")
	}
	var both []int
	b.ForEachAnd(o, func(i int) { both = append(both, i) })
	if len(both) != 1 || both[0] != 63 {
		t.Fatalf("ForEachAnd = %v", both)
	}
	f := NewBitset(70)
	f.Fill(70)
	if f.Count() != 70 {
		t.Fatalf("Fill count = %d", f.Count())
	}
	c := NewBitset(130)
	c.CopyFrom(b)
	c.AndWith(o)
	if c.Count() != 1 {
		t.Fatalf("AndWith count = %d", c.Count())
	}
}

func TestIsSubsetHelper(t *testing.T) {
	if !isSubset([]int{1, 3}, []int{1, 2, 3}) || isSubset([]int{1, 4}, []int{1, 2, 3}) {
		t.Fatal("isSubset broken")
	}
	if !isSubset(nil, []int{1}) {
		t.Fatal("empty set is a subset")
	}
}
