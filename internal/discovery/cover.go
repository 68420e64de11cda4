package discovery

import (
	"sort"

	"repro/internal/core"
	"repro/internal/pattern"
)

// Cover computes a cover Σc of Σ (algorithm SeqCover of Section 5.2): a
// minimal subset equivalent to Σ. It reduces the groups of CoverGroups in
// turn, so each φ is tested only against the GFDs embedded in its
// pattern, and returns the kept GFDs in SortMostSpecificFirst order. The
// groups share one Implier, which compiles each GFD's literals and
// enumerates each pattern pair's embeddings once.
//
// The result is the cover that inspecting all of Σ most specific first
// yields when each φ is tested against Σ\{φ}: Σ ⊨ φ iff the GFDs of Σ
// embedded in φ's pattern imply φ (Section 3), and a GFD that one group
// removes is implied by GFDs that stay, so the groups above it, which
// still test against it, decide as if it were gone.
func Cover(sigma []*core.GFD) []*core.GFD {
	var im core.Implier
	var kept []*core.GFD
	for _, g := range CoverGroups(sigma) {
		kept = append(kept, g.Reduce(&im)...)
	}
	// GFDs that tie in this order share a Key, hence a group, and each
	// group's stable sort kept them in Σ's order, as a sort of Σ would.
	SortMostSpecificFirst(kept)
	return kept
}

// CoverGroup is one work unit of the cover: the GFDs of Σ that share an
// unpivoted pattern Q (ΣQ), and the GFDs of other groups whose patterns
// embed in Q. Together they form Σ̄Q, the only GFDs of Σ that can imply a
// member of ΣQ. A group is only read once built, so workers may reduce
// different groups concurrently, each on its own Implier.
type CoverGroup struct {
	// GFDs is ΣQ, in Σ's order.
	GFDs []*core.GFD
	// Embedded is Σ̄Q \ ΣQ, in Σ's order of groups.
	Embedded []*core.GFD
}

// Cost estimates the group's implication work: each member is tested
// against Σ̄Q.
func (g *CoverGroup) Cost() int { return len(g.GFDs) * (1 + len(g.GFDs) + len(g.Embedded)) }

// CoverGroups partitions sigma by unpivoted pattern canonical code, in
// first-appearance order, and attaches to each group the GFDs of the
// groups whose patterns embed in its own. Implication does not see
// pivots, and only unpivoted isomorphism classes make the embedding order
// between groups acyclic (Lemma 6): no group's GFDs can imply a member
// of a group embedded in its pattern, so the groups reduce independently.
func CoverGroups(sigma []*core.GFD) []*CoverGroup {
	byCode := make(map[string]*CoverGroup)
	var groups []*CoverGroup
	for _, phi := range sigma {
		code := phi.Q.CanonicalCodeUnpivoted()
		g, ok := byCode[code]
		if !ok {
			g = &CoverGroup{}
			byCode[code] = g
			groups = append(groups, g)
		}
		g.GFDs = append(g.GFDs, phi)
	}
	for _, g := range groups {
		q := g.GFDs[0].Q
		for _, o := range groups {
			if p := o.GFDs[0].Q; o != g && pattern.LabelProfileCompatible(p, q) &&
				pattern.EmbedsInto(p, q, pattern.EmbedOptions{}) {
				g.Embedded = append(g.Embedded, o.GFDs...)
			}
		}
	}
	return groups
}

// Reduce removes the group's redundant members and returns the rest, most
// specific first. It inspects the members in SortMostSpecificFirst order
// and drops φ when Embedded, the members kept so far and those not yet
// inspected imply it. One pass suffices: implication is monotone, and the
// set only shrinks after φ is kept, so a kept φ is never implied later.
// The group's chase is compiled once; each test switches off φ's own
// rules and those of the members dropped before it.
func (g *CoverGroup) Reduce(im *core.Implier) []*core.GFD {
	work := append([]*core.GFD(nil), g.GFDs...)
	SortMostSpecificFirst(work)
	ch := im.Chase(g.Embedded, work)
	kept := make([]*core.GFD, 0, len(work))
	for i, phi := range work {
		if ch.Implied(i) {
			ch.Drop(i)
		} else {
			kept = append(kept, phi)
		}
	}
	return kept
}

// SortMostSpecificFirst orders sigma in place for cover inspection:
// larger patterns first, then longer premises, then descending Key, which
// is computed once per GFD. The cover keeps the most general members of
// each implication-equivalent family.
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
