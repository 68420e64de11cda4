package discovery

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// extensionsEager is the generator extensions replaced, kept as its
// reference: it builds and codes every candidate in generation order,
// de-duplicates, stable-sorts by score, then truncates to maxExt. The
// sorted edge labels it reads were a fresh sorted copy per use.
func (ti *tripleIndex) extensionsEager(p *pattern.Pattern, k int, wildcardNodes bool, maxExt, sigma int, pathOnly bool) []extCand {
	seen := make(map[string]bool)
	var out []extCand
	add := func(q *pattern.Pattern, score int) {
		code := q.CanonicalCode()
		if seen[code] {
			return
		}
		seen[code] = true
		out = append(out, extCand{p: q, score: score})
	}
	canGrow := p.N() < k

	if pathOnly {
		if canGrow {
			tail := p.N() - 1
			for _, t := range ti.bySrc[p.NodeLabels[tail]] {
				if ti.count[t] >= sigma {
					add(p.ExtendNewNode(tail, t.EdgeLabel, t.DstLabel, true), ti.count[t])
				}
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
		if maxExt > 0 && len(out) > maxExt {
			out = out[:maxExt]
		}
		return out
	}

	for v := 0; v < p.N(); v++ {
		lbl := p.NodeLabels[v]
		if lbl != pattern.Wildcard {
			if canGrow {
				wcDone := make(map[string]bool)
				for _, t := range ti.bySrc[lbl] {
					if ti.count[t] >= sigma {
						add(p.ExtendNewNode(v, t.EdgeLabel, t.DstLabel, true), ti.count[t])
					}
					if agg := ti.outAgg[[2]string{lbl, t.EdgeLabel}]; wildcardNodes && !wcDone[t.EdgeLabel] && agg >= sigma {
						wcDone[t.EdgeLabel] = true
						add(p.ExtendNewNode(v, t.EdgeLabel, pattern.Wildcard, true), agg)
					}
				}
				wcDone = make(map[string]bool)
				for _, t := range ti.byDst[lbl] {
					if ti.count[t] >= sigma {
						add(p.ExtendNewNode(v, t.EdgeLabel, t.SrcLabel, false), ti.count[t])
					}
					if agg := ti.inAgg[[2]string{lbl, t.EdgeLabel}]; wildcardNodes && !wcDone[t.EdgeLabel] && agg >= sigma {
						wcDone[t.EdgeLabel] = true
						add(p.ExtendNewNode(v, t.EdgeLabel, pattern.Wildcard, false), agg)
					}
				}
			}
		} else if canGrow && wildcardNodes {
			for _, el := range ti.labels {
				if ti.edgeAgg[el] < sigma {
					continue
				}
				add(p.ExtendNewNode(v, el, pattern.Wildcard, true), ti.edgeAgg[el])
				add(p.ExtendNewNode(v, el, pattern.Wildcard, false), ti.edgeAgg[el])
			}
		}
	}

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
				add(p.ExtendClosingEdge(u, w, el), score)
			}
		}
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	if maxExt > 0 && len(out) > maxExt {
		out = out[:maxExt]
	}
	return out
}

// recordingBackend passes every call through to SeqBackend and records
// the patterns the miner extends: each parent handle of ExtendBatch maps
// back to the pattern it was returned for.
type recordingBackend struct {
	Backend
	pats    map[Handle]*pattern.Pattern
	parents []*pattern.Pattern
	seen    map[Handle]bool
}

func (r *recordingBackend) record(ps []*pattern.Pattern, outs []PatOut) []PatOut {
	for i, o := range outs {
		if o.OK {
			r.pats[o.H] = ps[i]
		}
	}
	return outs
}

func (r *recordingBackend) SeedBatch(ps []*pattern.Pattern) []PatOut {
	return r.record(ps, r.Backend.SeedBatch(ps))
}

func (r *recordingBackend) ExtendBatch(parents []Handle, children []*pattern.Pattern) []PatOut {
	for _, h := range parents {
		if !r.seen[h] {
			r.seen[h] = true
			r.parents = append(r.parents, r.pats[h])
		}
	}
	return r.record(children, r.Backend.ExtendBatch(parents, children))
}

// minedParents mines g with opts and returns every pattern the miner
// extends, in the order it first extends them.
func minedParents(g graph.View, opts Options) []*pattern.Pattern {
	rb := &recordingBackend{Backend: NewSeqBackend(g, 0, nil), pats: map[Handle]*pattern.Pattern{}, seen: map[Handle]bool{}}
	MineWithBackend(rb, NewProfile(g, nil), opts)
	return rb.parents
}

// TestExtensionsMatchEager: for every pattern of the mined trees of three
// graphs, the score-first generator returns the eager reference's
// children — same patterns, variable numbering, codes, scores and order —
// for every cap, σ, wildcard setting and spawning mode.
func TestExtensionsMatchEager(t *testing.T) {
	golden, err := os.Open("../testutil/testdata/golden_graph.tsv")
	if err != nil {
		t.Fatal(err)
	}
	gg, err := graph.Read(golden)
	golden.Close()
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name  string
		g     graph.View
		sigma int
	}{
		{"golden", gg, 2},
		{"dbpedia-100", dataset.DBpediaSim(100, 3), 25},
		{"yago2-300", dataset.YAGO2Sim(300, 1), 25},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				K: 3, Support: tc.sigma, MaxX: 1, ConstantsPerAttr: 3, WildcardNodes: true,
				MaxExtensionsPerPattern: 20, MaxLevels: 4, MaxNegatives: -1,
			}
			pats := minedParents(tc.g, opts)
			if len(pats) < 20 {
				t.Fatalf("degenerate tree: %d patterns", len(pats))
			}
			ti := newTripleIndex(NewProfile(tc.g, nil).Stats, 1)
			calls, children := 0, 0
			for _, p := range pats {
				for _, sigma := range []int{1, 25} {
					for _, wc := range []bool{false, true} {
						for _, pathOnly := range []bool{false, true} {
							// The reference caps by truncating its sorted list,
							// so one uncapped call serves every cap.
							all := ti.extensionsEager(p, opts.K, wc, 0, sigma, pathOnly)
							for _, maxExt := range []int{0, 1, 5, 20} {
								want := all
								if maxExt > 0 && len(want) > maxExt {
									want = want[:maxExt]
								}
								got := ti.extensions(p, opts.K, wc, maxExt, sigma, pathOnly)
								where := fmt.Sprintf("%v σ=%d wildcard=%v pathOnly=%v maxExt=%d", p, sigma, wc, pathOnly, maxExt)
								if len(got) != len(want) {
									t.Fatalf("%s: %d children, reference %d", where, len(got), len(want))
								}
								for i := range got {
									g, w := got[i], want[i]
									if g.p.String() != w.p.String() || g.p.CanonicalCode() != w.p.CanonicalCode() || g.score != w.score {
										t.Fatalf("%s: child %d = %v (score %d), reference %v (score %d)", where, i, g.p, g.score, w.p, w.score)
									}
								}
								calls++
								children += len(got)
							}
						}
					}
				}
			}
			t.Logf("%d patterns, %d calls, %d children", len(pats), calls, children)
		})
	}
}
