package parallel

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/pattern"
)

// CoverOptions configures parallel cover computation.
type CoverOptions struct {
	// Grouping partitions Σ into per-pattern groups whose implication
	// checks are pairwise independent (Lemma 6). Disabling it yields the
	// ParCovern baseline: every test runs against the whole Σ.
	Grouping bool
}

// CoverResult is the output of parallel cover computation.
type CoverResult struct {
	Cover   []*core.GFD
	Groups  int
	Removed int
	Cluster cluster.Stats
}

// group is one work unit of ParCover: the GFDs sharing a pattern (ΣQj)
// plus the embedded superset Σ̄Qj used for their implication tests.
type group struct {
	code   string
	pat    *pattern.Pattern
	own    []*core.GFD // ΣQj
	embbed []*core.GFD // Σ̄Qj: GFDs of Σ embedded in Qj (includes own)
	cost   int
}

// Cover computes a cover of sigma in parallel (algorithm ParCover, Section
// 6.3). tree, when non-nil, is the generation tree P(Q) parent map from
// discovery, used to accept ancestor embeddings without isomorphism tests.
func Cover(sigma []*core.GFD, tree map[string][]string, eng *cluster.Engine, opts CoverOptions) *CoverResult {
	if !opts.Grouping {
		return coverNoGrouping(sigma, eng)
	}
	var groups []*group
	eng.Master("group construction", func() {
		groups = buildGroups(sigma, tree)
	})

	// Factor-2 load balancing: LPT greedy assignment of groups to workers
	// by estimated cost (the classic makespan approximation of [4]).
	n := eng.Workers()
	assign := make([][]*group, n)
	eng.Master("load balance", func() {
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].cost > groups[j].cost })
		load := make([]int, n)
		for _, g := range groups {
			least := 0
			for w := 1; w < n; w++ {
				if load[w] < load[least] {
					least = w
				}
			}
			assign[least] = append(assign[least], g)
			load[least] += g.cost
		}
	})

	// ParImp: each worker removes redundant GFDs within its groups,
	// testing against the group's embedded set only (Lemma 6). Every
	// worker chases on its own Implier: its embedding memo is not safe for
	// concurrent use.
	kept := make([][]*core.GFD, n)
	eng.Superstep("ParImp", func(w int) {
		var im core.Implier
		var out []*core.GFD
		for _, g := range assign[w] {
			out = append(out, parImp(g, &im)...)
			eng.Ship(w, int64(64*len(g.embbed))) // receive the group's Σ̄Qj
		}
		kept[w] = out
	})

	var cover []*core.GFD
	eng.Master("union", func() {
		for _, ks := range kept {
			cover = append(cover, ks...)
		}
	})
	return &CoverResult{
		Cover:   cover,
		Groups:  len(groups),
		Removed: len(sigma) - len(cover),
		Cluster: eng.Stats(),
	}
}

// buildGroups partitions sigma by *unpivoted* pattern canonical code —
// implication is pivot-blind, and only unpivoted isomorphism classes make
// inter-group implication acyclic (Lemma 6) — and attaches to each group
// the GFDs embedded in its pattern. Tree ancestry gives a fast accept
// path; remaining candidates are pre-filtered by label profiles before the
// embedding test (wildcard variants are same-level relatives the tree does
// not order).
func buildGroups(sigma []*core.GFD, tree map[string][]string) []*group {
	byCode := make(map[string]*group)
	var order []string
	for _, phi := range sigma {
		code := phi.Q.CanonicalCodeUnpivoted()
		g, ok := byCode[code]
		if !ok {
			g = &group{code: code, pat: phi.Q}
			byCode[code] = g
			order = append(order, code)
		}
		g.own = append(g.own, phi)
	}
	// Transitive ancestor codes per group, from the generation tree. The
	// tree is keyed by pivoted codes; map them onto unpivoted group codes.
	anc := make(map[string]map[string]bool)
	if tree != nil {
		unpivoted := make(map[string]string, len(tree)) // pivoted -> unpivoted (lazy, via groups seen)
		for _, phi := range sigma {
			unpivoted[phi.Q.CanonicalCode()] = phi.Q.CanonicalCodeUnpivoted()
		}
		var ancestors func(code string) map[string]bool
		memo := make(map[string]map[string]bool)
		ancestors = func(code string) map[string]bool {
			if a, ok := memo[code]; ok {
				return a
			}
			a := make(map[string]bool)
			memo[code] = a // placed before recursion; tree is acyclic by level
			for _, p := range tree[code] {
				if u, ok := unpivoted[p]; ok {
					a[u] = true
				}
				for pp := range ancestors(p) {
					a[pp] = true
				}
			}
			return a
		}
		for _, phi := range sigma {
			code := phi.Q.CanonicalCode()
			u := unpivoted[code]
			if anc[u] == nil {
				anc[u] = make(map[string]bool)
			}
			for p := range ancestors(code) {
				anc[u][p] = true
			}
		}
	}

	for _, code := range order {
		g := byCode[code]
		ancSet := anc[code]
		for _, other := range order {
			og := byCode[other]
			switch {
			case other == code:
				g.embbed = append(g.embbed, og.own...)
			case ancSet != nil && ancSet[other]:
				g.embbed = append(g.embbed, og.own...)
			case pattern.LabelProfileCompatible(og.pat, g.pat) &&
				pattern.EmbedsInto(og.pat, g.pat, pattern.EmbedOptions{}):
				g.embbed = append(g.embbed, og.own...)
			}
		}
		g.cost = len(g.own) * (1 + len(g.embbed))
	}
	out := make([]*group, 0, len(order))
	for _, code := range order {
		out = append(out, byCode[code])
	}
	return out
}

// parImp removes the redundant GFDs of one group: for each φ ∈ ΣQj it
// tests Σ̄Qj \ {φ} ⊨ φ, dropping φ if implied, sequentially within the
// group (most specific first, matching SeqCover's order). The embedded set
// is precomputed per group, so each test chases only Σ̄Qj, without the
// naive algorithm's scan of the whole Σ, and im enumerates each pattern
// pair's embeddings once across the worker's groups.
func parImp(g *group, im *core.Implier) []*core.GFD {
	own := append([]*core.GFD(nil), g.own...)
	discovery.SortMostSpecificFirst(own)
	removed := make(map[*core.GFD]bool)
	rest := make([]*core.GFD, 0, len(g.embbed))
	for _, phi := range own {
		rest = rest[:0]
		for _, psi := range g.embbed {
			if psi != phi && !removed[psi] {
				rest = append(rest, psi)
			}
		}
		if im.Implies(rest, phi) {
			removed[phi] = true
		}
	}
	var kept []*core.GFD
	for _, phi := range g.own {
		if !removed[phi] {
			kept = append(kept, phi)
		}
	}
	return kept
}

// coverNoGrouping is the ParCovern baseline: individual GFDs are dealt
// round-robin to workers and every implication test runs against the whole
// Σ. A master post-pass restores any equivalence broken by concurrent
// removal of mutually-implying GFDs.
func coverNoGrouping(sigma []*core.GFD, eng *cluster.Engine) *CoverResult {
	n := eng.Workers()
	redundant := make([]map[int]bool, n)
	eng.Superstep("ParImp (no grouping)", func(w int) {
		red := make(map[int]bool)
		for i := w; i < len(sigma); i += n {
			phi := sigma[i]
			rest := make([]*core.GFD, 0, len(sigma)-1)
			rest = append(rest, sigma[:i]...)
			rest = append(rest, sigma[i+1:]...)
			if core.Implies(rest, phi) {
				red[i] = true
			}
			eng.Ship(w, int64(64*len(sigma))) // each test receives all of Σ
		}
		redundant[w] = red
	})
	var cover []*core.GFD
	eng.Master("repair", func() {
		removed := make(map[int]bool)
		for _, red := range redundant {
			for i := range red {
				removed[i] = true
			}
		}
		// Re-add over-removed GFDs in index order until equivalence holds.
		var kept []*core.GFD
		for i, phi := range sigma {
			if !removed[i] {
				kept = append(kept, phi)
			}
		}
		for i, phi := range sigma {
			if removed[i] && !core.Implies(kept, phi) {
				kept = append(kept, phi)
				removed[i] = false
			}
		}
		// Re-adds can leave the set non-minimal (a later re-add may imply
		// an earlier one); a final sequential minimisation pass restores
		// minimality — more master-side work the grouped algorithm avoids.
		discovery.SortMostSpecificFirst(kept)
		for i := 0; i < len(kept); i++ {
			rest := make([]*core.GFD, 0, len(kept)-1)
			rest = append(rest, kept[:i]...)
			rest = append(rest, kept[i+1:]...)
			if core.Implies(rest, kept[i]) {
				kept = rest
				i--
			}
		}
		cover = kept
	})
	return &CoverResult{
		Cover:   cover,
		Groups:  len(sigma),
		Removed: len(sigma) - len(cover),
		Cluster: eng.Stats(),
	}
}

// CoverTime is a convenience for benchmarks: the simulated parallel
// response time of a cover run.
func (r *CoverResult) CoverTime() time.Duration { return r.Cluster.Total() }
