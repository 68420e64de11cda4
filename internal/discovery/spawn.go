package discovery

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// This file implements the pattern side of vertical spawning: VSpawn(i)
// generates candidate level-i patterns by adding one edge (possibly with a
// new node) to each verified level-(i-1) pattern (Section 5.1). Extension
// candidates are seeded by the frequent edge triples of the graph — an edge
// whose (srcLabel, edgeLabel, dstLabel) occurs fewer than σ times cannot
// yield a σ-frequent pattern, since pattern support is bounded by the
// occurrence count of each of its edges.
//
// Wildcard spawning: alongside every concrete extension, a variant whose
// new node is labelled '_' is generated (at most once per attachment point,
// edge label and direction), realising the paper's label upgrade to
// wildcard; closing-edge extensions connect existing variables.

// extCand is a candidate child pattern with a frequency score for ranking.
type extCand struct {
	p     *pattern.Pattern
	score int
}

// extDesc describes a candidate child of a parent pattern without
// building it: a new edge labelled label from variable at to the existing
// variable to (a closing edge, to ≥ 0), or between at and a new variable
// labelled node (to < 0), leaving at when out is set.
type extDesc struct {
	at, to      int
	label, node string
	out         bool
	score       int
}

// build returns the child of p that d describes.
func (d extDesc) build(p *pattern.Pattern) *pattern.Pattern {
	if d.to >= 0 {
		return p.ExtendClosingEdge(d.at, d.to, d.label)
	}
	return p.ExtendNewNode(d.at, d.label, d.node, d.out)
}

// tripleIndex aggregates triple counts for wildcard-endpoint lookups.
type tripleIndex struct {
	count   map[graph.TripleKey]int
	bySrc   map[string][]graph.TripleKey // srcLabel -> triples
	byDst   map[string][]graph.TripleKey
	outAgg  map[[2]string]int // (srcLabel, edgeLabel) -> count
	inAgg   map[[2]string]int // (dstLabel, edgeLabel) -> count
	edgeAgg map[string]int    // edgeLabel -> count
	labels  []string          // the distinct edge labels, sorted
	// describe's scratch, reused across calls: the descriptor list and
	// the edge labels already given a wildcard extension.
	ds     []extDesc
	wcDone map[string]bool
}

func newTripleIndex(st *graph.Stats, minCount int) *tripleIndex {
	ti := &tripleIndex{
		count:   make(map[graph.TripleKey]int),
		bySrc:   make(map[string][]graph.TripleKey),
		byDst:   make(map[string][]graph.TripleKey),
		outAgg:  make(map[[2]string]int),
		inAgg:   make(map[[2]string]int),
		edgeAgg: make(map[string]int),
		wcDone:  make(map[string]bool),
	}
	for _, t := range st.FrequentTriples(minCount) {
		c := st.TripleCount[t]
		ti.count[t] = c
		ti.bySrc[t.SrcLabel] = append(ti.bySrc[t.SrcLabel], t)
		ti.byDst[t.DstLabel] = append(ti.byDst[t.DstLabel], t)
		ti.outAgg[[2]string{t.SrcLabel, t.EdgeLabel}] += c
		ti.inAgg[[2]string{t.DstLabel, t.EdgeLabel}] += c
		if _, ok := ti.edgeAgg[t.EdgeLabel]; !ok {
			ti.labels = append(ti.labels, t.EdgeLabel)
		}
		ti.edgeAgg[t.EdgeLabel] += c
	}
	sort.Strings(ti.labels)
	return ti
}

// extensions generates the candidate children of p, deduplicated by
// canonical code, sorted by descending score. k bounds variable count.
// sigma filters candidates by frequency evidence: concrete extensions need
// a σ-frequent triple; wildcard extensions need σ-frequent aggregate counts
// (a triple below σ can still contribute to a frequent wildcard pattern).
// pathOnly restricts spawning to forward chains (the GCFD special case).
//
// Candidates are scored before any is built: they are stable-sorted by
// score, then built, coded and de-duplicated in that order until maxExt
// distinct children are kept (all of them when maxExt is 0). That keeps
// the children, and their order, of de-duplicating in generation order
// first. Two isomorphic candidates extend the same parent, so they add an
// edge with the same (source label, edge label, destination label) triple;
// every score is a function of that triple, so duplicates tie and the
// stable sort leaves the first generated of them first.
func (ti *tripleIndex) extensions(p *pattern.Pattern, k int, wildcardNodes bool, maxExt, sigma int, pathOnly bool) []extCand {
	ds := ti.describe(p, k, wildcardNodes, sigma, pathOnly)
	slices.SortStableFunc(ds, func(a, b extDesc) int { return cmp.Compare(b.score, a.score) })
	seen := make(map[string]bool)
	var out []extCand
	for _, d := range ds {
		if maxExt > 0 && len(out) == maxExt {
			break
		}
		q := d.build(p)
		if code := q.CanonicalCode(); !seen[code] {
			seen[code] = true
			out = append(out, extCand{p: q, score: d.score})
		}
	}
	ti.ds = ds
	return out
}

// describe lists the candidate children of p in generation order, with
// duplicates, in ti.ds's storage: the list is valid until the next call.
func (ti *tripleIndex) describe(p *pattern.Pattern, k int, wildcardNodes bool, sigma int, pathOnly bool) []extDesc {
	ds := ti.ds[:0]
	grow := func(at int, label, node string, out bool, score int) {
		ds = append(ds, extDesc{at: at, to: -1, label: label, node: node, out: out, score: score})
	}
	canGrow := p.N() < k

	if pathOnly {
		// Only the tail variable extends, outgoing, with concrete labels.
		if canGrow {
			tail := p.N() - 1
			for _, t := range ti.bySrc[p.NodeLabels[tail]] {
				if ti.count[t] >= sigma {
					grow(tail, t.EdgeLabel, t.DstLabel, true, ti.count[t])
				}
			}
		}
		return ds
	}

	for v := 0; v < p.N(); v++ {
		lbl := p.NodeLabels[v]
		if lbl != pattern.Wildcard {
			// Outgoing extensions with a new node.
			if canGrow {
				clear(ti.wcDone)
				for _, t := range ti.bySrc[lbl] {
					if ti.count[t] >= sigma {
						grow(v, t.EdgeLabel, t.DstLabel, true, ti.count[t])
					}
					if agg := ti.outAgg[[2]string{lbl, t.EdgeLabel}]; wildcardNodes && !ti.wcDone[t.EdgeLabel] && agg >= sigma {
						ti.wcDone[t.EdgeLabel] = true
						grow(v, t.EdgeLabel, pattern.Wildcard, true, agg)
					}
				}
				clear(ti.wcDone)
				for _, t := range ti.byDst[lbl] {
					if ti.count[t] >= sigma {
						grow(v, t.EdgeLabel, t.SrcLabel, false, ti.count[t])
					}
					if agg := ti.inAgg[[2]string{lbl, t.EdgeLabel}]; wildcardNodes && !ti.wcDone[t.EdgeLabel] && agg >= sigma {
						ti.wcDone[t.EdgeLabel] = true
						grow(v, t.EdgeLabel, pattern.Wildcard, false, agg)
					}
				}
			}
		} else if canGrow && wildcardNodes {
			// Wildcard attachment point: extend per edge label with wildcard
			// endpoints only (concrete endpoints would multiply candidates
			// without adding patterns the concrete attachment points miss).
			for _, el := range ti.labels {
				if ti.edgeAgg[el] < sigma {
					continue
				}
				grow(v, el, pattern.Wildcard, true, ti.edgeAgg[el])
				grow(v, el, pattern.Wildcard, false, ti.edgeAgg[el])
			}
		}
	}

	// Closing edges between existing variables.
	for u := 0; u < p.N(); u++ {
		for w := 0; w < p.N(); w++ {
			if u == w {
				continue
			}
			lu, lw := p.NodeLabels[u], p.NodeLabels[w]
			for _, el := range ti.labels {
				if p.HasEdge(u, w, el) {
					continue
				}
				score, ok := ti.closingScore(lu, el, lw)
				if !ok || score < sigma {
					continue
				}
				ds = append(ds, extDesc{at: u, to: w, label: el, score: score})
			}
		}
	}
	return ds
}

// closingScore returns the frequency evidence for an edge labelled el from
// a node labelled lu to one labelled lw, handling wildcards by aggregation.
func (ti *tripleIndex) closingScore(lu, el, lw string) (int, bool) {
	switch {
	case lu != pattern.Wildcard && lw != pattern.Wildcard:
		c, ok := ti.count[graph.TripleKey{SrcLabel: lu, EdgeLabel: el, DstLabel: lw}]
		return c, ok
	case lu != pattern.Wildcard:
		c, ok := ti.outAgg[[2]string{lu, el}]
		return c, ok
	case lw != pattern.Wildcard:
		c, ok := ti.inAgg[[2]string{lw, el}]
		return c, ok
	default:
		c, ok := ti.edgeAgg[el]
		return c, ok
	}
}

// seedLabels returns the node labels whose occurrence count reaches σ —
// the single-node patterns that cold-start the generation tree — sorted by
// descending count.
func seedLabels(st *graph.Stats, sigma int) []string {
	var ls []string
	for l, c := range st.NodeLabelCount {
		if c >= sigma {
			ls = append(ls, l)
		}
	}
	sort.Slice(ls, func(i, j int) bool {
		ci, cj := st.NodeLabelCount[ls[i]], st.NodeLabelCount[ls[j]]
		if ci != cj {
			return ci > cj
		}
		return ls[i] < ls[j]
	})
	return ls
}
