package discovery

import (
	"sort"

	"repro/internal/core"
)

// Cover computes a cover Σc of Σ (algorithm SeqCover of Section 5.2): a
// minimal subset equivalent to Σ. For each φ it tests Σ\{φ} ⊨ φ with the
// closure characterisation of GFD implication and removes φ if implied.
// One pass suffices: implication is monotone in Σ, and Σ only shrinks
// after φ is kept, so a kept φ is never implied later. The tests share one
// Implier, which enumerates each pattern pair's embeddings once.
//
// The order of inspection is deterministic: GFDs with larger patterns and
// longer premises are inspected first, so the cover retains the most
// general members of each implication-equivalent family.
func Cover(sigma []*core.GFD) []*core.GFD {
	work := append([]*core.GFD(nil), sigma...)
	SortMostSpecificFirst(work)
	var im core.Implier
	kept := make([]*core.GFD, 0, len(work))
	rest := make([]*core.GFD, 0, len(work))
	for i, phi := range work {
		// Σ\{φ}: the GFDs kept so far and those not yet inspected.
		rest = append(append(rest[:0], kept...), work[i+1:]...)
		if !im.Implies(rest, phi) {
			kept = append(kept, phi)
		}
	}
	return kept
}

// SortMostSpecificFirst orders sigma in place for cover inspection:
// larger patterns first, then longer premises, then descending Key, which
// is computed once per GFD.
func SortMostSpecificFirst(sigma []*core.GFD) {
	type keyed struct {
		g   *core.GFD
		key string
	}
	order := make([]keyed, len(sigma))
	for i, g := range sigma {
		order[i] = keyed{g, g.Key()}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i].g, order[j].g
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		if len(a.X) != len(b.X) {
			return len(a.X) > len(b.X)
		}
		return order[i].key > order[j].key
	})
	for i, o := range order {
		sigma[i] = o.g
	}
}

// CoverResult carries the cover with counters for reporting.
type CoverResult struct {
	Cover   []*core.GFD
	Input   int
	Removed int
}

// CoverWithStats computes the cover and reports how much was removed.
func CoverWithStats(sigma []*core.GFD) CoverResult {
	cov := Cover(sigma)
	return CoverResult{Cover: cov, Input: len(sigma), Removed: len(sigma) - len(cov)}
}

// MinedCover filters a discovery result to a cover, preserving the Mined
// metadata of the survivors (positives and negatives alike).
func MinedCover(res *Result) []Mined {
	all := append([]Mined(nil), res.Positives...)
	all = append(all, res.Negatives...)
	byGFD := make(map[*core.GFD]Mined, len(all))
	gfds := make([]*core.GFD, len(all))
	for i, m := range all {
		gfds[i] = m.GFD
		byGFD[m.GFD] = m
	}
	cov := Cover(gfds)
	out := make([]Mined, 0, len(cov))
	for _, g := range cov {
		out = append(out, byGFD[g])
	}
	return out
}
