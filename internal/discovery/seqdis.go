package discovery

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Mine runs sequential GFD discovery (algorithm SeqDis of Section 5.1) on
// g: it returns the k-bounded minimum σ-frequent positive GFDs and the
// negative GFDs triggered by them, with work statistics.
func Mine(g *graph.Graph, opts Options) *Result {
	return MineView(g, opts)
}

// MineView is Mine over any graph.View: the miner, like the match and
// eval layers it drives, only reads the View surface, so discovery runs
// unchanged against a fragment or a zero-copy snapshot-backed
// store.MappedGraph.
func MineView(v graph.View, opts Options) *Result {
	opts = opts.withDefaults()
	prof := NewProfile(v, opts.ActiveAttrs)
	res := &Result{}
	backend := NewSeqBackend(v, opts.MaxTableRows, &res.Stats)
	mineWithBackend(backend, prof, opts, res)
	return res
}

// MineWithBackend runs the discovery driver against an arbitrary Backend;
// package parallel uses it with the fragmented cluster backend (ParDis).
func MineWithBackend(b Backend, prof *Profile, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{}
	mineWithBackend(b, prof, opts, res)
	return res
}

// patNode is a node of the GFD generation tree T: a verified pattern with
// its match state and support.
type patNode struct {
	p       *pattern.Pattern
	h       Handle
	support int
	rows    int
	level   int
}

type miner struct {
	b    Backend
	prof *Profile
	opts Options
	res  *Result

	ti       *tripleIndex
	posByRHS map[string][]*core.GFD // RHS signature -> positives, for reduction checks
	negKeys  map[string]bool
	posKeys  map[string]bool
	budget   int // remaining candidate budget; -1 = unlimited

	// literalTree scratch: the triviality and reduction checker, which
	// holds the current pattern's compiled pool, the current and next
	// frontiers, the minimal valid X sets, and a negative candidate's
	// pool indexes.
	imp             core.Implier
	frontier, next  []int
	valid, validEnd []int
	nx              []int
}

func mineWithBackend(b Backend, prof *Profile, opts Options, res *Result) {
	m := &miner{
		b:        b,
		prof:     prof,
		opts:     opts,
		res:      res,
		ti:       newTripleIndex(prof.Stats, 1),
		posByRHS: make(map[string][]*core.GFD),
		negKeys:  make(map[string]bool),
		posKeys:  make(map[string]bool),
		budget:   -1,
	}
	if opts.CandidateBudget > 0 {
		m.budget = opts.CandidateBudget
	}
	m.run()
}

func (m *miner) run() {
	level := m.spawnGFDInit() // level-0 single-node patterns
	var deferred []*patNode   // decoupled mode: patterns awaiting HSpawn
	if !m.opts.Decoupled {
		for _, pn := range level {
			m.hspawn(pn)
		}
	} else {
		deferred = append(deferred, level...)
	}

	maxLevels := m.opts.K * m.opts.K
	if m.opts.MaxLevels > 0 && m.opts.MaxLevels < maxLevels {
		maxLevels = m.opts.MaxLevels
	}
	for i := 1; i <= maxLevels && len(level) > 0 && !m.res.Stats.BudgetExhausted; i++ {
		sp := m.opts.Trace.StartScope("level", "level", strconv.Itoa(i))
		m.res.Stats.Levels = i
		next := m.vspawn(level, i)
		if !m.opts.Decoupled {
			for _, pn := range next {
				m.hspawn(pn)
			}
			// Parent match state is no longer needed once children exist.
			for _, pn := range level {
				m.b.Release(pn.h)
			}
		} else {
			deferred = append(deferred, next...)
		}
		level = next
		sp.End()
	}
	if m.opts.Decoupled {
		// Phase 2 of the ParArab baseline: attach literals to all frequent
		// patterns after the fact, with every table still live.
		for _, pn := range deferred {
			if m.res.Stats.BudgetExhausted {
				break
			}
			m.hspawn(pn)
		}
		for _, pn := range deferred {
			m.b.Release(pn.h)
		}
	} else {
		for _, pn := range level {
			m.b.Release(pn.h)
		}
	}
}

// spawnGFDInit cold-starts the generation tree with single-node patterns
// for every σ-frequent node label (plus the wildcard node when enabled).
func (m *miner) spawnGFDInit() []*patNode {
	var out []*patNode
	seedSigma := m.opts.Support
	if m.opts.DisablePruning {
		seedSigma = 1
	}
	labels := seedLabels(m.prof.Stats, seedSigma)
	if m.opts.WildcardNodes {
		labels = append(labels, pattern.Wildcard)
	}
	ps := make([]*pattern.Pattern, len(labels))
	for i, l := range labels {
		ps[i] = pattern.SingleNode(l)
		m.res.Stats.PatternsSpawned++
	}
	for i, po := range m.b.SeedBatch(ps) {
		m.res.Stats.PatternsVerified++
		if po.Support < m.opts.Support && !m.opts.DisablePruning {
			m.res.Stats.PatternsPruned++
			m.b.Release(po.H)
			continue
		}
		if po.Support >= m.opts.Support {
			m.res.Stats.PatternsFrequent++
		}
		out = append(out, &patNode{p: ps[i], h: po.H, support: po.Support, rows: po.Rows})
	}
	m.orderLevel(out)
	return out
}

// vspawn runs VSpawn(i): one-edge extensions of every level-(i-1) pattern,
// de-duplicated by canonical code (the iso(Q) handling of Section 5.1),
// then verified by incremental joins from their first spawning parent.
// Children with zero matches trigger NVSpawn. Infrequent children are
// pruned by Lemma 4(c) unless pruning is disabled.
func (m *miner) vspawn(level []*patNode, i int) []*patNode {
	type cand struct {
		p      *pattern.Pattern
		parent *patNode
		score  int
	}
	extSigma := m.opts.Support
	if m.opts.DisablePruning {
		extSigma = 1 // ParGFDn: no frequency evidence required of extensions
	}
	byCode := make(map[string]*cand)
	var order []string
	for _, pn := range level {
		for _, ec := range m.ti.extensions(pn.p, m.opts.K, m.opts.WildcardNodes, m.opts.MaxExtensionsPerPattern, extSigma, m.opts.PathOnly) {
			m.res.Stats.PatternsSpawned++
			code := ec.p.CanonicalCode()
			if _, ok := byCode[code]; ok {
				continue // iso(Q): the first spawning parent verifies it
			}
			byCode[code] = &cand{p: ec.p, parent: pn, score: ec.score}
			order = append(order, code)
		}
	}

	// Verify the whole level's work units in one batch (one distributed
	// superstep in the parallel backend).
	parentHandles := make([]Handle, len(order))
	children := make([]*pattern.Pattern, len(order))
	for idx, code := range order {
		parentHandles[idx] = byCode[code].parent.h
		children[idx] = byCode[code].p
	}
	outs := m.b.ExtendBatch(parentHandles, children)

	var out []*patNode
	for idx, code := range order {
		c := byCode[code]
		h, supp, rows, ok := outs[idx].H, outs[idx].Support, outs[idx].Rows, outs[idx].OK
		if !ok {
			continue
		}
		m.res.Stats.PatternsVerified++
		switch {
		case rows == 0:
			// NVSpawn: supp(Q′, z̄) = 0 while the spawning parent is
			// σ-frequent — a case (a) negative GFD Q′[x̄](∅ → false) whose
			// base is the parent pattern.
			m.b.Release(h)
			if c.parent.support >= m.opts.Support {
				m.emitNegative(core.New(c.p, nil, core.False()), c.parent.support, i)
			}
		case supp < m.opts.Support && !m.opts.DisablePruning:
			// Lemma 4(c): no extension of an infrequent pattern can carry a
			// frequent GFD.
			m.res.Stats.PatternsPruned++
			m.b.Release(h)
		default:
			if supp >= m.opts.Support {
				m.res.Stats.PatternsFrequent++
			}
			out = append(out, &patNode{p: c.p, h: h, support: supp, rows: rows, level: i})
		}
	}

	m.orderLevel(out)
	if m.opts.MaxPatternsPerLevel > 0 && len(out) > m.opts.MaxPatternsPerLevel {
		for _, pn := range out[m.opts.MaxPatternsPerLevel:] {
			m.b.Release(pn.h)
		}
		out = out[:m.opts.MaxPatternsPerLevel]
	}
	return out
}

// orderLevel sorts a level's patterns general-first (fewer variables, more
// wildcards, higher support): general GFDs then enter Σ before their
// specialisations are checked, so the pattern-reduction test of minimality
// sees them in time.
func (m *miner) orderLevel(level []*patNode) {
	wc := func(p *pattern.Pattern) int {
		n := 0
		for _, l := range p.NodeLabels {
			if l == pattern.Wildcard {
				n++
			}
		}
		for _, e := range p.Edges {
			if e.Label == pattern.Wildcard {
				n++
			}
		}
		return n
	}
	sort.SliceStable(level, func(i, j int) bool {
		a, b := level[i], level[j]
		if a.p.N() != b.p.N() {
			return a.p.N() < b.p.N()
		}
		wa, wb := wc(a.p), wc(b.p)
		if wa != wb {
			return wa > wb
		}
		return a.support > b.support
	})
}

// buildPool assembles the literal pool of a pattern: constant literals over
// the observed values of active attributes at each variable, and variable
// literals x.A = y.B (same attribute by default; all pairs when
// VarVarAllAttrs is set).
func (m *miner) buildPool(pn *patNode) []core.Literal {
	var pool []core.Literal
	n := pn.p.N()
	consts := m.b.Constants(pn.h, n, m.prof.Gamma, m.opts.ConstantsPerAttr)
	for v := 0; v < n; v++ {
		for ai, a := range m.prof.Gamma {
			for _, c := range consts[v*len(m.prof.Gamma)+ai] {
				pool = append(pool, core.Const(v, a, c))
			}
		}
	}
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			for ai, a := range m.prof.Gamma {
				if x == y {
					if m.opts.VarVarAllAttrs {
						for _, b := range m.prof.Gamma[ai+1:] {
							pool = append(pool, core.Vars(x, a, y, b))
						}
					}
					continue
				}
				pool = append(pool, core.Vars(x, a, y, a))
				if m.opts.VarVarAllAttrs {
					for bi, b := range m.prof.Gamma {
						if bi != ai {
							pool = append(pool, core.Vars(x, a, y, b))
						}
					}
				}
			}
		}
	}
	return pool
}

// hspawn runs the horizontal spawning HSpawn(i, ·) for one pattern: for
// every right-hand-side literal l it grows the literal tree lvec[l]
// levelwise, validating each candidate Q[x̄](X → l) against the pattern's
// matches, applying the Lemma 4 prunings, and triggering NHSpawn on every
// verified frequent GFD.
func (m *miner) hspawn(pn *patNode) {
	if pn.rows == 0 {
		return
	}
	pool := m.buildPool(pn)
	if len(pool) == 0 {
		return
	}
	ev := m.b.Evaluate(pn.h, pool)
	defer ev.Release()
	m.imp.CompilePool(pool)

	for li := range pool {
		m.literalTree(pn, ev, pool, li)
		if m.res.Stats.BudgetExhausted {
			return
		}
	}
}

// literalTree grows the literal tree rooted at RHS literal pool[li].
// Level j holds X sets of j pool indexes, so each frontier is one flat run
// with stride j; the frontiers, the minimal valid sets and the literal
// buffer of the triviality test are miner scratch, reused across trees.
// The next frontier is built only when level j+1 will run, and a GFD is
// built only for a verified, frequent candidate.
func (m *miner) literalTree(pn *patNode, ev Evaluator, pool []core.Literal, li int) {
	rhs := pool[li]
	frontier, next := m.frontier[:0], m.next[:0]
	count := 1 // level 0 holds the empty X
	// The X sets with G ⊨ Q(X → l), whose children are non-reduced, laid
	// end to end: set v is valid[validEnd[v-1]:validEnd[v]].
	m.valid, m.validEnd = m.valid[:0], m.validEnd[:0]
	defer func() { m.frontier, m.next = frontier, next }()

	subsumed := func(x []int) bool {
		lo := 0
		for _, hi := range m.validEnd {
			if isSubset(m.valid[lo:hi], x) {
				return true
			}
			lo = hi
		}
		return false
	}

	for j := 0; j <= m.opts.MaxX && count > 0; j++ {
		next = next[:0]
		nextCount := 0
		// expand extends X with literals above its maximum index (each
		// subset is generated exactly once), unless level j is the last.
		expand := func(x []int) {
			if j == m.opts.MaxX {
				return
			}
			base := -1
			if len(x) > 0 {
				base = x[len(x)-1]
			}
			for nj := base + 1; nj < len(pool); nj++ {
				if nj != li {
					next = append(append(next, x...), nj)
					nextCount++
				}
			}
		}
		for c := 0; c < count; c++ {
			x := frontier[c*j : (c+1)*j : (c+1)*j]
			m.res.Stats.CandidatesSpawned++
			if m.budget == 0 {
				m.res.Stats.BudgetExhausted = true
				return
			}
			sub := subsumed(x)
			if sub && !m.opts.DisablePruning {
				// Lemma 4(b): a superset of a verified X is not reduced, nor
				// is any further superset — prune the whole branch.
				m.res.Stats.CandidatesPruned++
				continue
			}
			if m.imp.TrivialPool(x, li) {
				// Lemma 4(a): trivial GFDs (unsatisfiable X, or RHS derived
				// by transitivity) are never emitted; extensions of an
				// unsatisfiable X stay unsatisfiable and extensions of a
				// deriving X still derive l, so the branch dies with it —
				// unless pruning is disabled (ParGFDn explores it anyway).
				m.res.Stats.CandidatesPruned++
				if m.opts.DisablePruning {
					expand(x)
				}
				continue
			}
			m.res.Stats.CandidatesChecked++
			if m.budget > 0 {
				m.budget--
			}
			if !ev.Violated(x, li) {
				if !sub {
					m.valid = append(m.valid, x...)
					m.validEnd = append(m.validEnd, len(m.valid))
					supp := ev.SupportXl(x, li)
					if supp >= m.opts.Support {
						// NHSpawn's bases need only be verified and
						// frequent (Φ′ of Section 4.2 requires G ⊨ φ′, not
						// minimality), so it fires before the reduction
						// test that gates Σ membership.
						m.nhspawn(pn, ev, pool, x, supp)
						phi := core.New(pn.p, literalsOf(pool, x), rhs)
						if !m.reducedBy(phi) {
							m.emitPositive(phi, supp, pn)
						} else {
							m.res.Stats.CandidatesPruned++
						}
					} else {
						m.res.Stats.CandidatesPruned++
					}
				}
				// Verified: children are non-reduced either way (Lemma
				// 4(b)); only the unpruned baseline keeps going.
				if m.opts.DisablePruning {
					expand(x)
				}
				continue
			}
			expand(x)
		}
		frontier, next, count = next, frontier, nextCount
	}
}

// nhspawn emits the case (b) negative GFDs triggered by a verified
// frequent positive φ = Q(X → l): for every pool literal l′ that never
// co-holds with X on any match (Q(G, X ∪ {l′}, z) = 0), the candidate
// Q(X ∪ {l′} → false) is a negative GFD with base support supp(φ).
// Implausible literals — whose attribute never occurs at the variable — are
// skipped: under OWA, wholly absent attributes carry no evidence.
func (m *miner) nhspawn(pn *patNode, ev Evaluator, pool []core.Literal, x []int, baseSupp int) {
	if m.opts.MaxNegatives < 0 ||
		(m.opts.MaxNegatives > 0 && len(m.res.Negatives) >= m.opts.MaxNegatives) {
		return
	}
	co := ev.CoHolds(x)
	for j, holds := range co {
		if holds || contains(x, j) {
			continue
		}
		m.res.Stats.NegativesSpawned++
		l := pool[j]
		plausible := false
		switch l.Kind {
		case core.LConst:
			plausible = ev.AttrPresent(l.X, l.A)
		case core.LVar:
			plausible = ev.AttrPresent(l.X, l.A) && ev.AttrPresent(l.Y, l.B)
		}
		if !plausible {
			continue
		}
		m.nx = append(append(m.nx[:0], x...), j)
		if m.imp.TrivialPool(m.nx, core.PoolFalse) {
			continue
		}
		m.emitNegative(core.New(pn.p, append(literalsOf(pool, x), l), core.False()), baseSupp, pn.level)
	}
}

func (m *miner) emitPositive(phi *core.GFD, supp int, pn *patNode) {
	key := phi.Key()
	if m.posKeys[key] {
		return
	}
	m.posKeys[key] = true
	m.res.Positives = append(m.res.Positives, Mined{GFD: phi, Support: supp, PatternSupport: pn.support, Level: pn.level})
	sig := rhsSignature(phi.RHS)
	m.posByRHS[sig] = append(m.posByRHS[sig], phi)
}

func (m *miner) emitNegative(phi *core.GFD, baseSupp, level int) {
	if m.opts.MaxNegatives < 0 {
		return
	}
	if m.opts.MaxNegatives > 0 && len(m.res.Negatives) >= m.opts.MaxNegatives {
		return
	}
	if baseSupp < m.opts.Support {
		return
	}
	key := phi.Key()
	if m.negKeys[key] {
		return
	}
	m.negKeys[key] = true
	m.res.Negatives = append(m.res.Negatives, Mined{GFD: phi, Support: baseSupp, Level: level})
}

// reducedBy reports whether some already-discovered positive GFD reduces
// phi (φ′ ≪ φ), making phi non-minimum. Candidates are filtered by the
// right-hand-side signature: a reducing GFD must map its RHS onto phi's,
// so attribute names and constants must agree.
func (m *miner) reducedBy(phi *core.GFD) bool {
	for _, psi := range m.posByRHS[rhsSignature(phi.RHS)] {
		if psi.Size() <= phi.Size() && psi.K() <= phi.K() && m.imp.Reduces(psi, phi) {
			return true
		}
	}
	return false
}

// rhsSignature is a variable-free fingerprint of a literal: remapping
// variables never changes it, so ψ ≪ φ implies equal signatures.
func rhsSignature(l core.Literal) string {
	switch l.Kind {
	case core.LConst:
		return "c:" + l.A + "=" + l.C
	case core.LVar:
		a, b := l.A, l.B
		if b < a {
			a, b = b, a
		}
		return "v:" + a + "~" + b
	default:
		return "f"
	}
}

func literalsOf(pool []core.Literal, idx []int) []core.Literal {
	out := make([]core.Literal, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

func isSubset(a, b []int) bool {
	// both sorted
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Describe renders a mined GFD with its supports, for reports and logs.
func (m Mined) Describe() string {
	return fmt.Sprintf("%s  [supp=%d, patternSupp=%d, level=%d]", m.GFD, m.Support, m.PatternSupport, m.Level)
}
