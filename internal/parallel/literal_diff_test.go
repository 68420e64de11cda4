package parallel

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// TestLiteralPlaneDifferential drives the miner through both backends —
// SeqBackend, and ParDis at n = 1..4 in Makespan and Concurrent mode with
// load balancing, so rebalanced parts share pivots across workers — and
// checks every Violated, SupportXl, SupportX, CoHolds and AttrPresent
// answer the driver receives against a reference computed row by row
// from an independent enumeration of the pattern's matches, with
// eval.CompileLiteral(view, l).Holds per literal and a map of pivots.
// Both graphs carry sparse Γ columns, which the backends project to the
// dense layout: genre and type on YAGO2Sim, zone on the golden graph.
func TestLiteralPlaneDifferential(t *testing.T) {
	for _, gc := range literalPlaneGraphs(t) {
		prof := discovery.NewProfile(gc.g, gc.opts.ActiveAttrs)
		for _, attr := range gc.sparse {
			aid, ok := gc.g.LookupAttr(attr)
			if nodes, _ := gc.g.AttrColumn(aid).Sparse(); !ok || len(nodes) == 0 || !slices.Contains(prof.Gamma, attr) {
				t.Fatalf("%s: %q is not a sparse Γ column (Γ = %v)", gc.name, attr, prof.Gamma)
			}
		}
		run := func(name string, b discovery.Backend) {
			cb := newCheckedBackend(t, gc, name, b)
			res := discovery.MineWithBackend(cb, prof, gc.opts)
			if len(res.Positives) == 0 || cb.checked[qViolated] == 0 || cb.checked[qSupportXl] == 0 ||
				cb.checked[qCoHolds] == 0 || cb.checked[qAttrPresent] == 0 {
				t.Fatalf("%s: degenerate run: %d positives, checked %v", cb.name, len(res.Positives), cb.checked)
			}
			t.Logf("%s: checked %v answers (Violated, SupportXl, SupportX, CoHolds, AttrPresent)", cb.name, cb.checked)
			for _, attr := range gc.sparse {
				if cb.sparseRows[attr] == 0 {
					t.Fatalf("%s: no evaluated pool row carries sparse attribute %q", cb.name, attr)
				}
			}
		}
		run("seq", discovery.NewSeqBackend(gc.g, 0, nil))
		for mode, modeName := range []string{cluster.Makespan: "makespan", cluster.Concurrent: "concurrent"} {
			for n := 1; n <= 4; n++ {
				eng := cluster.New(cluster.Config{Workers: n, Mode: cluster.Mode(mode)})
				run(fmt.Sprintf("%s/n=%d", modeName, n), NewBackend(gc.g, eng, Options{LoadBalance: true}, nil))
			}
		}
	}
}

// literalPlaneGraph is one input of the literal-plane tests: a graph,
// the mining options, and the sparse Γ columns it carries.
type literalPlaneGraph struct {
	name   string
	g      *graph.Graph
	opts   discovery.Options
	sparse []string
}

// literalPlaneGraphs returns YAGO2Sim 60 and the golden graph, both mined
// at K = 2 and MaxX = 2.
func literalPlaneGraphs(t *testing.T) []literalPlaneGraph {
	f, err := os.Open(goldenGraphPath)
	if err != nil {
		t.Fatalf("open golden graph: %v", err)
	}
	golden, err := graph.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("read golden graph: %v", err)
	}
	goldenK2 := goldenSpillOptions()
	goldenK2.K = 2
	return []literalPlaneGraph{
		{"yago2", dataset.YAGO2Sim(60, 1),
			discovery.Options{K: 2, Support: 8, MaxX: 2, ConstantsPerAttr: 3, WildcardNodes: true, MaxNegatives: 100},
			[]string{"genre", "type"}},
		{"golden", golden, goldenK2, []string{"zone"}},
	}
}

const (
	qViolated = iota
	qSupportXl
	qSupportX
	qCoHolds
	qAttrPresent
	numQueryKinds
)

// checkedBackend passes every call through to the backend under test and
// wraps its evaluators so each answer is checked against a reference.
// The handle-to-pattern map lets the reference enumerate a pattern's
// matches without reading the backend's tables.
type checkedBackend struct {
	discovery.Backend
	t          *testing.T
	name       string
	g          *graph.Graph
	pats       map[discovery.Handle]*pattern.Pattern
	sparse     []string
	checked    [numQueryKinds]int
	sparseRows map[string]int // evaluated rows carrying each sparse attribute
}

func newCheckedBackend(t *testing.T, gc literalPlaneGraph, name string, b discovery.Backend) *checkedBackend {
	return &checkedBackend{Backend: b, t: t, name: gc.name + "/" + name, g: gc.g, sparse: gc.sparse,
		pats: map[discovery.Handle]*pattern.Pattern{}, sparseRows: map[string]int{}}
}

func (c *checkedBackend) SeedBatch(ps []*pattern.Pattern) []discovery.PatOut {
	out := c.Backend.SeedBatch(ps)
	for i, o := range out {
		if o.OK {
			c.pats[o.H] = ps[i]
		}
	}
	return out
}

func (c *checkedBackend) ExtendBatch(parents []discovery.Handle, children []*pattern.Pattern) []discovery.PatOut {
	out := c.Backend.ExtendBatch(parents, children)
	for i, o := range out {
		if o.OK {
			c.pats[o.H] = children[i]
		}
	}
	return out
}

func (c *checkedBackend) Release(h discovery.Handle) {
	delete(c.pats, h)
	c.Backend.Release(h)
}

func (c *checkedBackend) Evaluate(h discovery.Handle, pool []core.Literal) discovery.Evaluator {
	p := c.pats[h]
	if p == nil {
		c.t.Fatalf("%s: Evaluate on an unknown handle", c.name)
	}
	ref := &refEval{p: p, pool: pool}
	match.PlanFor(c.g, p).Enumerate(func(m match.Match) bool {
		ref.rows = append(ref.rows, m.Clone())
		return true
	})
	ref.sat = make([][]bool, len(pool))
	for j, l := range pool {
		cl := eval.CompileLiteral(c.g, l)
		ref.sat[j] = make([]bool, len(ref.rows))
		for r, m := range ref.rows {
			ref.sat[j][r] = cl.Holds(m)
		}
	}
	for _, m := range ref.rows {
		for _, node := range m {
			for _, attr := range c.sparse {
				if _, ok := c.g.Attr(node, attr); ok {
					c.sparseRows[attr]++
				}
			}
		}
	}
	return &checkedEval{ev: c.Backend.Evaluate(h, pool), ref: ref, c: c}
}

// refEval answers the Evaluator queries row by row.
type refEval struct {
	p    *pattern.Pattern
	pool []core.Literal
	rows []match.Match
	sat  [][]bool // sat[j][r]: pool[j] holds on rows[r]
}

func (r *refEval) holdsX(x []int, row int) bool {
	for _, j := range x {
		if !r.sat[j][row] {
			return false
		}
	}
	return true
}

// violated reports whether some row satisfies X but not l.
func (r *refEval) violated(x []int, l int) bool {
	for row := range r.rows {
		if r.holdsX(x, row) && !r.sat[l][row] {
			return true
		}
	}
	return false
}

func (r *refEval) support(x []int, l int) int {
	pivots := map[graph.NodeID]struct{}{}
	for row, m := range r.rows {
		if r.holdsX(x, row) && (l < 0 || r.sat[l][row]) {
			pivots[m[r.p.Pivot]] = struct{}{}
		}
	}
	return len(pivots)
}

type checkedEval struct {
	ev  discovery.Evaluator
	ref *refEval
	c   *checkedBackend
}

// fail reports an answer that differs from the reference. MaxX 2 in
// both configurations keeps every X at |X| ≤ 2.
func (e *checkedEval) fail(x []int, format string, args ...any) {
	e.c.t.Fatalf("%s: pattern %s, X=%v: %s", e.c.name, e.ref.p, x, fmt.Sprintf(format, args...))
}

func (e *checkedEval) Violated(x []int, l int) bool {
	got := e.ev.Violated(x, l)
	e.c.checked[qViolated]++
	if want := e.ref.violated(x, l); got != want {
		e.fail(x, "Violated(l=%d) = %v, reference %v", l, got, want)
	}
	return got
}

// SupportXl also asks SupportX(X), which the driver never does itself,
// so both support paths are checked on the same X sets.
func (e *checkedEval) SupportXl(x []int, l int) int {
	got := e.ev.SupportXl(x, l)
	e.c.checked[qSupportXl]++
	if want := e.ref.support(x, l); got != want {
		e.fail(x, "SupportXl(l=%d) = %d, reference %d", l, got, want)
	}
	e.SupportX(x)
	return got
}

func (e *checkedEval) SupportX(x []int) int {
	got := e.ev.SupportX(x)
	e.c.checked[qSupportX]++
	if want := e.ref.support(x, -1); got != want {
		e.fail(x, "SupportX = %d, reference %d", got, want)
	}
	return got
}

func (e *checkedEval) CoHolds(x []int) []bool {
	got := e.ev.CoHolds(x)
	want := make([]bool, len(e.ref.pool))
	for j := range want {
		for row := range e.ref.rows {
			if e.ref.holdsX(x, row) && e.ref.sat[j][row] {
				want[j] = true
				break
			}
		}
	}
	e.c.checked[qCoHolds]++
	if !slices.Equal(got, want) {
		e.fail(x, "CoHolds = %v, reference %v", got, want)
	}
	return got
}

func (e *checkedEval) AttrPresent(v int, attr string) bool {
	got := e.ev.AttrPresent(v, attr)
	want := false
	for _, m := range e.ref.rows {
		if _, ok := e.c.g.Attr(m[v], attr); ok {
			want = true
			break
		}
	}
	e.c.checked[qAttrPresent]++
	if got != want {
		e.fail(nil, "AttrPresent(x%d.%s) = %v, reference %v", v, attr, got, want)
	}
	return got
}

func (e *checkedEval) Release() { e.ev.Release() }
