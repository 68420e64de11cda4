// Package match implements subgraph-isomorphism matching of graph patterns
// in property graphs (Section 2.1 of Fan et al., SIGMOD 2018): a match of
// Q[x̄] in G is an injective mapping h from pattern variables to graph
// nodes such that node labels satisfy L(h(u)) ⪯ L_Q(u) and every pattern
// edge (u,u′) has a corresponding graph edge (h(u),h(u′)) whose label
// satisfies ⪯ (non-induced semantics: G may contain extra edges among the
// matched nodes).
//
// Everything matches against a graph.View — the CSR label-run surface
// shared by a full *graph.Graph and a fragment-local *graph.SubCSR — so
// the same machinery serves sequential mining and ParDis workers holding
// real per-fragment indexes. Two execution styles are provided:
//
//   - compiled plans (Plan, built once per (view, pattern) and cached in
//     the view's PlanCache): backtracking enumeration over the view's
//     interned CSR label runs, growing matches outward from the pivot with
//     integer-only comparisons and pooled, allocation-free search state
//     (Enumerate, MatchesAt, HasMatchAt, PivotNodes). Step order is chosen
//     by estimated selectivity from the view's per-label run statistics;
//   - materialised columnar match tables extended one edge at a time
//     (Table, ExtendRows, ExtendRowsViews): per-variable node-ID columns
//     with zero-copy slicing, the incremental-join primitive that both the
//     sequential generation tree (Section 5) and the distributed joins of
//     ParDis (Section 6.2) are built on.
package match

import (
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Match assigns a graph node to each pattern variable: Match[i] = h(x_i).
type Match []graph.NodeID

// Clone returns a copy of m.
func (m Match) Clone() Match { return append(Match(nil), m...) }

// checkEdge is a pattern edge with its label resolved against the view's
// symbol table, verified once both endpoints are bound.
type checkEdge struct {
	src, dst int32
	label    graph.LabelID // NoLabel = wildcard (any edge label)
}

// planStep binds variable vr by scanning the label run of the already-bound
// variable anchor (or by label scan when anchor < 0), then verifies the
// remaining pattern edges between vr and bound variables.
type planStep struct {
	vr       int32
	anchor   int32         // bound variable whose adjacency seeds candidates; -1 = label scan
	outgoing bool          // direction of the anchoring edge: anchor -> vr if true
	elabel   graph.LabelID // anchoring edge label; NoLabel = wildcard
	vlabel   graph.LabelID // required node label of vr; NoLabel = wildcard
	check    []checkEdge
}

// Plan is a pattern compiled against one view: step order, candidate
// sources and interned labels are all resolved at compile time, so the
// enumeration inner loop compares integers only. Plans are immutable and
// safe for concurrent use; obtain cached ones with PlanFor.
type Plan struct {
	v          graph.View
	p          *pattern.Pattern
	steps      []planStep
	order      []int32 // binding order: order[d] = steps[d].vr
	pivotLabel graph.LabelID
	// dead marks a plan whose pattern uses a concrete label absent from the
	// view: no match can exist, so every query short-circuits.
	dead bool
}

// PlanFor returns the compiled plan of p against v, caching it in v's
// PlanCache keyed by the pattern pointer. Patterns must not be mutated
// after first use (the extension helpers always clone, so discovery
// satisfies this for free). Fragment views carry their own caches, so a
// pattern compiled against one fragment never leaks to another.
func PlanFor(v graph.View, p *pattern.Pattern) *Plan {
	c := v.PlanCache()
	if pl, ok := c.Load(p); ok {
		return pl.(*Plan)
	}
	pl := Compile(v, p)
	if prev, loaded := c.LoadOrStore(p, pl); loaded {
		return prev.(*Plan)
	}
	return pl
}

// PlannerMode selects the cost model compile orders steps with.
type PlannerMode int

const (
	// PlanStatic ignores the view entirely: the next variable is the one
	// with the most pattern edges into the bound prefix (the pre-statistics
	// heuristic of the pre-View matcher).
	PlanStatic PlannerMode = iota
	// PlanGlobal scores each candidate step by global per-label
	// selectivity: mean edges per node times the node-label filter (the
	// planner-v1 estimator, kept as an ablation reference).
	PlanGlobal
	// PlanDegree is planner v2: PlanGlobal's estimate corrected by the
	// per-label degree distribution (DegreeStats) — a step anchored at a
	// variable that was itself reached through an edge sees the
	// size-biased degree, so hub concentration multiplies its estimated
	// fan-out by the label's Skew factor and the planner defers scans
	// through hub labels on skewed graphs.
	PlanDegree
)

// DefaultPlanner is the mode Compile (and therefore PlanFor) uses. It is
// an ablation knob, not a runtime switch: set it before any plans are
// compiled, because cached plans are not invalidated by changing it.
var DefaultPlanner = PlanDegree

// Compile builds a fresh selectivity-ordered plan of p against v with the
// DefaultPlanner cost model, bypassing the cache. Use it for throwaway
// patterns (e.g. edge reductions) that would only bloat the per-view
// cache.
func Compile(v graph.View, p *pattern.Pattern) *Plan {
	return compile(v, p, DefaultPlanner)
}

// compile builds the step order. With a statistics mode, the next
// variable is the candidate with the smallest estimated fan-out —
// expected candidates per anchored scan, times the node label's
// selectivity, optionally corrected for degree skew — so tight labels
// are bound before promiscuous ones. Every mode is deterministic for a
// given (view, pattern): all estimates are ratios of integer statistics.
func compile(v graph.View, p *pattern.Pattern, mode PlannerMode) *Plan {
	start := time.Now()
	defer func() {
		mPlanCompiles.Inc()
		hPlanCompile.ObserveSince(start)
	}()
	pl := &Plan{v: v, p: p}
	resolve := func(lbl string) graph.LabelID {
		if lbl == pattern.Wildcard {
			return graph.NoLabel
		}
		id, ok := v.LookupLabel(lbl)
		if !ok {
			pl.dead = true
		}
		return id
	}
	varLabel := make([]graph.LabelID, p.N())
	for vi, l := range p.NodeLabels {
		varLabel[vi] = resolve(l)
	}
	pl.pivotLabel = varLabel[p.Pivot]

	// fanout estimates the number of candidate bindings an anchored scan
	// for edge label el produces, discounted by the node-label filter of
	// the variable being bound. Dead labels estimate to 0. In PlanDegree
	// mode the base estimate is the per-label mean degree corrected by the
	// label's Skew when the anchor is "hot" (itself bound through an edge,
	// hence size-biased toward hubs).
	nn := float64(v.NumNodes())
	useStats := mode != PlanStatic
	var ds *graph.DegreeStats
	if mode == PlanDegree {
		ds = graph.DegreeStatsFor(v)
	}
	fanout := func(el string, vl graph.LabelID, outgoing, anchorHot bool) float64 {
		if nn == 0 {
			return 0
		}
		var perNode float64
		var ld *graph.LabelDegree
		if el == pattern.Wildcard {
			perNode = float64(v.NumEdges()) / nn
			if ds != nil {
				if outgoing {
					ld = &ds.OutAll
				} else {
					ld = &ds.InAll
				}
			}
		} else if id, ok := v.LookupLabel(el); ok {
			perNode = float64(v.EdgeLabelCount(id)) / nn
			if ds != nil {
				if outgoing {
					ld = &ds.Out[id]
				} else {
					ld = &ds.In[id]
				}
			}
		} else {
			return 0
		}
		if ld != nil && anchorHot {
			perNode *= ld.Skew()
		}
		if vl != graph.NoLabel {
			perNode *= float64(len(v.NodesByLabelID(vl))) / nn
		}
		return perNode
	}

	n := p.N()
	bound := make([]bool, n)
	// hot marks variables bound through an edge scan: their binding is
	// edge-weighted (hubs over-represented), so scans anchored at them see
	// size-biased degrees. The pivot and label-scanned variables are
	// uniformly bound, hence not hot.
	hot := make([]bool, n)
	bound[p.Pivot] = true
	pl.steps = append(pl.steps, planStep{vr: int32(p.Pivot), anchor: -1, elabel: graph.NoLabel, vlabel: varLabel[p.Pivot]})

	for len(pl.steps) < n {
		// Pick the next unbound variable adjacent to a bound one: by
		// estimated selectivity (useStats) with the bound-edge count as
		// tiebreak, or by bound-edge count alone (static).
		bestVar, bestAnchor, bestEdge, bestCnt := -1, -1, -1, -1
		bestScore := 0.0
		var bestOut bool
		for ei, e := range p.Edges {
			type side struct {
				v, anchor int
				out       bool
			}
			for _, s := range []side{{e.Dst, e.Src, true}, {e.Src, e.Dst, false}} {
				if bound[s.v] || !bound[s.anchor] {
					continue
				}
				cnt := 0
				for _, e2 := range p.Edges {
					if (e2.Src == s.v && bound[e2.Dst]) || (e2.Dst == s.v && bound[e2.Src]) {
						cnt++
					}
				}
				better := false
				if useStats {
					score := fanout(e.Label, varLabel[s.v], s.out, hot[s.anchor])
					switch {
					case bestVar < 0 || score < bestScore:
						better = true
						bestScore = score
					case score == bestScore && cnt > bestCnt:
						better = true
					}
				} else {
					better = cnt > bestCnt
				}
				if better {
					bestVar, bestAnchor, bestOut, bestEdge, bestCnt = s.v, s.anchor, s.out, ei, cnt
				}
			}
		}
		if bestVar < 0 {
			// Disconnected pattern: fall back to a label scan for the first
			// unbound variable. Discovery never spawns these, but the matcher
			// stays total.
			for vi := 0; vi < n; vi++ {
				if !bound[vi] {
					bestVar, bestAnchor, bestEdge = vi, -1, -1
					break
				}
			}
		}
		st := planStep{vr: int32(bestVar), anchor: int32(bestAnchor), outgoing: bestOut,
			elabel: graph.NoLabel, vlabel: varLabel[bestVar]}
		if bestEdge >= 0 {
			st.elabel = resolve(p.Edges[bestEdge].Label)
		}
		// Collect the pattern edges between bestVar and bound variables for
		// post-bind verification. The anchoring edge instance is excluded:
		// its candidates come straight from that edge's CSR run.
		for ei, e := range p.Edges {
			if ei == bestEdge {
				continue
			}
			if e.Src == bestVar && bound[e.Dst] || e.Dst == bestVar && bound[e.Src] {
				st.check = append(st.check, checkEdge{src: int32(e.Src), dst: int32(e.Dst), label: resolve(e.Label)})
			}
		}
		bound[bestVar] = true
		hot[bestVar] = bestEdge >= 0
		pl.steps = append(pl.steps, st)
	}
	pl.order = make([]int32, len(pl.steps))
	for d, s := range pl.steps {
		pl.order[d] = s.vr
	}
	return pl
}

// runState is the pooled, reusable search state of one enumeration: the
// partial assignment doubles as the used-set (patterns have ≤ k ≈ 5
// variables, so injectivity is a short linear scan over the bound prefix).
type runState struct {
	v         graph.View
	pl        *Plan
	m         Match
	fn        func(Match) bool
	existOnly bool
	found     bool
}

var statePool = sync.Pool{New: func() any { return new(runState) }}

func (pl *Plan) newState() *runState {
	st := statePool.Get().(*runState)
	st.v, st.pl = pl.v, pl
	if n := len(pl.steps); cap(st.m) < n {
		st.m = make(Match, n)
	} else {
		st.m = st.m[:n]
	}
	st.found = false
	st.existOnly = false
	return st
}

func putState(st *runState) {
	st.v, st.pl, st.fn = nil, nil, nil
	statePool.Put(st)
}

// rec binds steps[d:]; it returns false when enumeration was stopped early.
func (st *runState) rec(d int) bool {
	pl := st.pl
	if d == len(pl.steps) {
		if st.existOnly {
			st.found = true
			return false
		}
		return st.fn(st.m)
	}
	s := &pl.steps[d]
	g := st.v
	if s.anchor < 0 {
		if s.vlabel == graph.NoLabel {
			for v, n := 0, g.NumNodes(); v < n; v++ {
				if !st.try(d, s, graph.NodeID(v)) {
					return false
				}
			}
			return true
		}
		for _, v := range g.NodesByLabelID(s.vlabel) {
			if !st.try(d, s, v) {
				return false
			}
		}
		return true
	}
	a := st.m[s.anchor]
	if s.elabel != graph.NoLabel {
		var cands []graph.NodeID
		if s.outgoing {
			cands = g.OutTo(a, s.elabel)
		} else {
			cands = g.InFrom(a, s.elabel)
		}
		for _, v := range cands {
			if !st.try(d, s, v) {
				return false
			}
		}
		return true
	}
	// Wildcard anchoring edge: every label run qualifies. A neighbour
	// reachable under several labels is tried once per label, matching the
	// per-edge semantics of match enumeration (and of EdgeMatches).
	if s.outgoing {
		lo, hi := g.OutRuns(a)
		for r := lo; r < hi; r++ {
			for _, v := range g.OutRunNodes(r) {
				if !st.try(d, s, v) {
					return false
				}
			}
		}
		return true
	}
	lo, hi := g.InRuns(a)
	for r := lo; r < hi; r++ {
		for _, v := range g.InRunNodes(r) {
			if !st.try(d, s, v) {
				return false
			}
		}
	}
	return true
}

// try attempts to bind step s (at depth d) to cand and recurses on success.
// It returns false only when enumeration should stop.
func (st *runState) try(d int, s *planStep, cand graph.NodeID) bool {
	g := st.v
	if s.vlabel != graph.NoLabel && g.NodeLabelID(cand) != s.vlabel {
		return true
	}
	for j := 0; j < d; j++ {
		if st.m[st.pl.order[j]] == cand {
			return true // injectivity
		}
	}
	st.m[s.vr] = cand
	for _, c := range s.check {
		if !g.HasEdgeID(st.m[c.src], st.m[c.dst], c.label) {
			return true
		}
	}
	return st.rec(d + 1)
}

// Enumerate calls fn for every match of the pattern in the view, growing
// matches outward from the pivot. fn returns false to stop early. The Match
// slice is reused across calls; copy it (Clone) to retain it.
func (pl *Plan) Enumerate(fn func(Match) bool) {
	if pl.dead {
		return
	}
	st := pl.newState()
	st.fn = fn
	st.rec(0)
	putState(st)
}

// MatchesAt calls fn for every match with h(pivot) = v.
func (pl *Plan) MatchesAt(v graph.NodeID, fn func(Match) bool) {
	if pl.dead {
		return
	}
	st := pl.newState()
	st.fn = fn
	st.try(0, &pl.steps[0], v)
	putState(st)
}

// HasMatchAt reports whether the pattern has at least one match pivoted at
// v. It allocates nothing beyond pooled search state.
func (pl *Plan) HasMatchAt(v graph.NodeID) bool {
	if pl.dead {
		return false
	}
	st := pl.newState()
	st.existOnly = true
	st.try(0, &pl.steps[0], v)
	found := st.found
	putState(st)
	return found
}

// PivotNodes returns Q(G, z): the distinct nodes v admitting a match
// pivoted at v, in ascending order. Its cardinality is the pattern support
// supp(Q, G) of Section 4.2.
func (pl *Plan) PivotNodes() []graph.NodeID {
	if pl.dead {
		return nil
	}
	g := pl.v
	var out []graph.NodeID
	st := pl.newState()
	st.existOnly = true
	consider := func(v graph.NodeID) {
		st.found = false
		st.try(0, &pl.steps[0], v)
		if st.found {
			out = append(out, v)
		}
	}
	if pl.pivotLabel == graph.NoLabel {
		for v, n := 0, g.NumNodes(); v < n; v++ {
			consider(graph.NodeID(v))
		}
	} else {
		for _, v := range g.NodesByLabelID(pl.pivotLabel) {
			consider(v)
		}
	}
	putState(st)
	return out
}

// Support returns supp(Q, G) = |Q(G, z)| without materialising the pivot
// set.
func (pl *Plan) Support() int {
	if pl.dead {
		return 0
	}
	g := pl.v
	st := pl.newState()
	st.existOnly = true
	n := 0
	if pl.pivotLabel == graph.NoLabel {
		for v, nn := 0, g.NumNodes(); v < nn; v++ {
			st.found = false
			st.try(0, &pl.steps[0], graph.NodeID(v))
			if st.found {
				n++
			}
		}
	} else {
		for _, v := range g.NodesByLabelID(pl.pivotLabel) {
			st.found = false
			st.try(0, &pl.steps[0], v)
			if st.found {
				n++
			}
		}
	}
	putState(st)
	return n
}

// CountMatches returns the total number of matches, up to limit (limit <= 0
// means unlimited).
func (pl *Plan) CountMatches(limit int) int {
	n := 0
	pl.Enumerate(func(Match) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n
}

// --- Package-level shims over the cached plan ---

// Enumerate calls fn for every match of p in v. fn returns false to stop
// early. The Match slice is reused across calls; Clone to retain it.
func Enumerate(v graph.View, p *pattern.Pattern, fn func(Match) bool) {
	PlanFor(v, p).Enumerate(fn)
}

// MatchesAt calls fn for every match of p in v with h(pivot) = node.
func MatchesAt(v graph.View, p *pattern.Pattern, node graph.NodeID, fn func(Match) bool) {
	PlanFor(v, p).MatchesAt(node, fn)
}

// HasMatchAt reports whether p has at least one match pivoted at node.
func HasMatchAt(v graph.View, p *pattern.Pattern, node graph.NodeID) bool {
	return PlanFor(v, p).HasMatchAt(node)
}

// PivotNodes returns Q(G, z): the distinct nodes admitting a match of p
// pivoted there, in ascending order.
func PivotNodes(v graph.View, p *pattern.Pattern) []graph.NodeID {
	return PlanFor(v, p).PivotNodes()
}

// PatternSupport returns supp(p, v) = |Q(G, z)|.
func PatternSupport(v graph.View, p *pattern.Pattern) int {
	return PlanFor(v, p).Support()
}

// CountMatches returns the total number of matches of p in v, up to limit
// (limit <= 0 means unlimited). Used by tests and by baselines whose
// support is match-count based (the non-anti-monotone definition the paper
// rejects).
func CountMatches(v graph.View, p *pattern.Pattern, limit int) int {
	return PlanFor(v, p).CountMatches(limit)
}
