package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The fmt-based canonical-code encoder that minCode replaced, kept as
// the reference its output must equal byte for byte: the codes key
// GFD.Key(), the golden file and the benchmark's output digests.

// refEdgeCode renders p's edges under perm, sorted.
func refEdgeCode(p *Pattern, perm []int) string {
	es := make([]Edge, len(p.Edges))
	for i, e := range p.Edges {
		es[i] = Edge{Src: perm[e.Src], Dst: perm[e.Dst], Label: e.Label}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		return es[i].Label < es[j].Label
	})
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintf(&b, "%d>%d:%s;", e.Src, e.Dst, e.Label)
	}
	return b.String()
}

// refPermCode renders p under perm; pivoted appends the pivot position.
func refPermCode(p *Pattern, perm []int, pivoted bool) string {
	labels := make([]string, p.N())
	for v, l := range p.NodeLabels {
		labels[perm[v]] = l
	}
	code := strings.Join(labels, ",") + "|" + refEdgeCode(p, perm)
	if pivoted {
		code += fmt.Sprintf("@%d", perm[p.Pivot])
	}
	return code
}

// refCanonicalCode is the retired CanonicalCode body.
func refCanonicalCode(p *Pattern) string {
	n := p.N()
	if n == 1 {
		return refPermCode(p, []int{0}, true)
	}
	best := ""
	perm := make([]int, n)
	used := make([]bool, n)
	perm[p.Pivot] = 0
	used[0] = true
	vars := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != p.Pivot {
			vars = append(vars, v)
		}
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			if code := refPermCode(p, perm, true); best == "" || code < best {
				best = code
			}
			return
		}
		for pos := 1; pos < n; pos++ {
			if !used[pos] {
				perm[vars[i]], used[pos] = pos, true
				rec(i + 1)
				used[pos] = false
			}
		}
	}
	rec(0)
	return best
}

// refCanonicalCodeUnpivoted is the retired CanonicalCodeUnpivoted body.
func refCanonicalCodeUnpivoted(p *Pattern) string {
	n := p.N()
	best := ""
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			if code := refPermCode(p, perm, false); best == "" || code < best {
				best = code
			}
			return
		}
		for pos := 0; pos < n; pos++ {
			if !used[pos] {
				perm[v], used[pos] = pos, true
				rec(v + 1)
				used[pos] = false
			}
		}
	}
	rec(0)
	return best
}

// codeLabels holds labels whose bytes sort below the code's separators
// (',' and '|'), contain them, or are prefixes of one another.
var codeLabels = []string{Wildcard, "!x", "a,b", "a|b", "1", "10", "a", "ab", ""}

// randomCodePattern draws a pattern of 1–6 variables and 0–8 edges over
// codeLabels, with self-loops, parallel and repeated edges, not
// necessarily connected, and a random pivot.
func randomCodePattern(r *rand.Rand) *Pattern {
	n := 1 + r.Intn(6)
	p := &Pattern{NodeLabels: make([]string, n), Pivot: r.Intn(n)}
	for v := range p.NodeLabels {
		p.NodeLabels[v] = codeLabels[r.Intn(len(codeLabels))]
	}
	for i, m := 0, r.Intn(9); i < m; i++ {
		p.Edges = append(p.Edges, Edge{Src: r.Intn(n), Dst: r.Intn(n), Label: codeLabels[r.Intn(len(codeLabels))]})
	}
	return p
}

// TestCanonicalCodeMatchesReference: both codes equal the retired fmt
// encoder's on random patterns, and a clone computes them afresh.
func TestCanonicalCodeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 4000; i++ {
		p := randomCodePattern(r)
		if got, want := p.CanonicalCode(), refCanonicalCode(p); got != want {
			t.Fatalf("CanonicalCode(%v) = %q, reference %q", p, got, want)
		}
		if got, want := p.CanonicalCodeUnpivoted(), refCanonicalCodeUnpivoted(p); got != want {
			t.Fatalf("CanonicalCodeUnpivoted(%v) = %q, reference %q", p, got, want)
		}
		if q := p.Clone(); q.CanonicalCode() != p.CanonicalCode() || q.CanonicalCodeUnpivoted() != p.CanonicalCodeUnpivoted() {
			t.Fatalf("clone of %v codes differently", p)
		}
	}
}
