package parallel

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discovery"
)

// CoverResult is the output of parallel cover computation.
type CoverResult struct {
	Cover   []*core.GFD
	Groups  int
	Removed int
	Cluster cluster.Stats
}

// Cover computes a cover of sigma in parallel (algorithm ParCover, Section
// 6.3): the master builds discovery's cover groups and deals them to the
// workers, and each worker reduces its groups (ParImp). The groups reduce
// independently (Lemma 6), so the union holds the GFDs discovery.Cover
// returns, in worker order: worker by worker, its groups in dealing order,
// each group's kept GFDs most specific first. Callers that need
// discovery.Cover's order sort the result with
// discovery.SortMostSpecificFirst.
func Cover(sigma []*core.GFD, eng *cluster.Engine) *CoverResult {
	var groups []*discovery.CoverGroup
	eng.Master("group construction", func() {
		groups = discovery.CoverGroups(sigma)
	})

	// Factor-2 load balancing: LPT greedy assignment of groups to workers
	// by estimated cost (the classic makespan approximation of [4]).
	n := eng.Workers()
	assign := make([][]*discovery.CoverGroup, n)
	eng.Master("load balance", func() {
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].Cost() > groups[j].Cost() })
		load := make([]int, n)
		for _, g := range groups {
			least := 0
			for w := 1; w < n; w++ {
				if load[w] < load[least] {
					least = w
				}
			}
			assign[least] = append(assign[least], g)
			load[least] += g.Cost()
		}
	})

	// ParImp: each worker reduces its groups, testing each GFD against its
	// group's embedded set only. Every worker chases on its own Implier:
	// its embedding memo is not safe for concurrent use.
	kept := make([][]*core.GFD, n)
	eng.Superstep("ParImp", func(w int) {
		var im core.Implier
		var out []*core.GFD
		for _, g := range assign[w] {
			out = append(out, g.Reduce(&im)...)
			eng.Ship(w, int64(64*(len(g.GFDs)+len(g.Embedded)))) // receive the group's Σ̄Qj
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

// CoverUngrouped is the ParCovern baseline of the paper's Exp-4 (Fig.
// 5(i)-(l)): individual GFDs are dealt round-robin to workers and every
// implication test runs against the whole Σ. A master post-pass restores
// any equivalence broken by concurrent removal of mutually-implying GFDs.
func CoverUngrouped(sigma []*core.GFD, eng *cluster.Engine) *CoverResult {
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
