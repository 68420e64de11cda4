// Package pattern implements the graph patterns Q[x̄] of Fan et al.
// (SIGMOD 2018, Section 2.1): small connected directed graphs whose nodes
// are bound to variables, with node and edge labels drawn from the data
// alphabet Θ plus the wildcard '_' that matches any label.
//
// Beyond the pattern structure itself the package provides:
//
//   - pattern isomorphism and pivot-preserving canonical codes, used to
//     de-duplicate spawned patterns (the iso(Q) classes of Section 5.1);
//   - embeddings of one pattern into a subgraph of another, the engine
//     behind both GFD implication (Section 3) and the reduction order ≪
//     (Section 4.1);
//   - single-edge extensions, the vertical-spawning step VSpawn.
package pattern

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Wildcard is the generic label '_' that any label of Θ matches: ℓ ≺ '_'
// for every ℓ ∈ Θ.
const Wildcard = "_"

// LabelMatches reports ℓ ⪯ ℓ′: the concrete (data) label ℓ matches the
// pattern label ℓ′ if they are equal or ℓ′ is the wildcard.
func LabelMatches(l, pat string) bool {
	return pat == Wildcard || l == pat
}

// LabelGeneralises reports whether pattern label general is at least as
// permissive as pattern label specific: either they are equal or general is
// the wildcard. It is the label condition for Q ≪ Q′ and for embeddings
// used in implication analysis.
func LabelGeneralises(general, specific string) bool {
	return general == Wildcard || general == specific
}

// Edge is a directed pattern edge between variable positions.
type Edge struct {
	Src   int    // variable index of the source
	Dst   int    // variable index of the destination
	Label string // edge label, possibly Wildcard
}

// Pattern is a graph pattern Q[x̄]. Variables are identified by their index
// in 0..N-1; NodeLabels[i] is the label of variable i (possibly Wildcard).
// Pivot designates the variable z used for topological support (Section
// 4.2); it defaults to variable 0.
type Pattern struct {
	NodeLabels []string
	Edges      []Edge
	Pivot      int

	// code/codeUnpivoted cache the canonical codes. Patterns are
	// value-built and then treated as immutable: do not mutate NodeLabels,
	// Edges or Pivot after the first CanonicalCode call (the extension
	// helpers always clone).
	code          string
	codeUnpivoted string
}

// SingleNode returns the one-variable pattern with the given node label.
func SingleNode(label string) *Pattern {
	return &Pattern{NodeLabels: []string{label}}
}

// SingleEdge returns the two-variable, one-edge pattern
// (x0:srcLabel) --edgeLabel--> (x1:dstLabel) with pivot x0.
func SingleEdge(srcLabel, edgeLabel, dstLabel string) *Pattern {
	return &Pattern{
		NodeLabels: []string{srcLabel, dstLabel},
		Edges:      []Edge{{Src: 0, Dst: 1, Label: edgeLabel}},
	}
}

// N returns the number of variables |x̄|.
func (p *Pattern) N() int { return len(p.NodeLabels) }

// Size returns the number of edges, the pattern's level in the generation
// tree.
func (p *Pattern) Size() int { return len(p.Edges) }

// Clone returns a deep copy of p.
func (p *Pattern) Clone() *Pattern {
	return &Pattern{
		NodeLabels: append([]string(nil), p.NodeLabels...),
		Edges:      append([]Edge(nil), p.Edges...),
		Pivot:      p.Pivot,
		// canonical-code caches intentionally not copied: clones are
		// mutated by the extension helpers before use.
	}
}

// HasEdge reports whether p contains the exact edge (src, dst, label).
func (p *Pattern) HasEdge(src, dst int, label string) bool {
	for _, e := range p.Edges {
		if e.Src == src && e.Dst == dst && e.Label == label {
			return true
		}
	}
	return false
}

// ExtendNewNode returns a copy of p with a fresh variable labelled
// nodeLabel connected to variable at by a new edge. If outgoing is true the
// edge runs at -> new, otherwise new -> at. The pivot is preserved.
func (p *Pattern) ExtendNewNode(at int, edgeLabel, nodeLabel string, outgoing bool) *Pattern {
	q := p.Clone()
	nv := len(q.NodeLabels)
	q.NodeLabels = append(q.NodeLabels, nodeLabel)
	if outgoing {
		q.Edges = append(q.Edges, Edge{Src: at, Dst: nv, Label: edgeLabel})
	} else {
		q.Edges = append(q.Edges, Edge{Src: nv, Dst: at, Label: edgeLabel})
	}
	return q
}

// ExtendClosingEdge returns a copy of p with an additional edge between two
// existing variables. The pivot is preserved.
func (p *Pattern) ExtendClosingEdge(src, dst int, edgeLabel string) *Pattern {
	q := p.Clone()
	q.Edges = append(q.Edges, Edge{Src: src, Dst: dst, Label: edgeLabel})
	return q
}

// WithNodeLabel returns a copy of p with variable v relabelled.
func (p *Pattern) WithNodeLabel(v int, label string) *Pattern {
	q := p.Clone()
	q.NodeLabels[v] = label
	return q
}

// LastEdge returns the most recently added edge. It panics on an edgeless
// pattern.
func (p *Pattern) LastEdge() Edge { return p.Edges[len(p.Edges)-1] }

// adjacency returns, per variable, the indexes of edges incident to it.
func (p *Pattern) adjacency() [][]int {
	adj := make([][]int, p.N())
	for i, e := range p.Edges {
		adj[e.Src] = append(adj[e.Src], i)
		if e.Dst != e.Src {
			adj[e.Dst] = append(adj[e.Dst], i)
		}
	}
	return adj
}

// Connected reports whether every pair of variables is joined by an
// undirected path. Single-node patterns are connected. Discovery only
// spawns connected patterns (Section 4).
func (p *Pattern) Connected() bool {
	n := p.N()
	if n <= 1 {
		return true
	}
	adj := p.adjacency()
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range adj[v] {
			e := p.Edges[ei]
			for _, w := range [2]int{e.Src, e.Dst} {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
	}
	return count == n
}

// Radius returns d_Q, the longest undirected shortest-path distance from
// the pivot to any variable, or -1 if some variable is unreachable. All
// nodes of any match pivoted at v lie within Radius() hops of v (the data
// locality exploited by pivoted matching).
func (p *Pattern) Radius() int {
	n := p.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	adj := p.adjacency()
	queue := []int{p.Pivot}
	dist[p.Pivot] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ei := range adj[v] {
			e := p.Edges[ei]
			for _, w := range [2]int{e.Src, e.Dst} {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	max := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > max {
			max = d
		}
	}
	return max
}

// String renders the pattern compactly, e.g.
// "Q[x0:person*, x1:product | x0-create->x1]" where '*' marks the pivot.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString("Q[")
	for i, l := range p.NodeLabels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "x%d:%s", i, l)
		if i == p.Pivot {
			b.WriteByte('*')
		}
	}
	if len(p.Edges) > 0 {
		b.WriteString(" | ")
		for i, e := range p.Edges {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "x%d-%s->x%d", e.Src, e.Label, e.Dst)
		}
	}
	b.WriteString("]")
	return b.String()
}

// CanonicalCode returns a string that is identical for exactly the patterns
// isomorphic to p *with matching pivots*: two patterns receive the same
// code iff there is an isomorphism between them mapping pivot to pivot and
// preserving all labels. Patterns in discovery have ≤ k ≤ 6 variables, so
// minimising over every one of the (k-1)! pivot-fixing permutations is
// cheap.
func (p *Pattern) CanonicalCode() string {
	if p.code == "" {
		p.code = p.minCode(true)
	}
	return p.code
}

// Isomorphic reports whether p and q are isomorphic with pivots preserved
// and labels equal.
func Isomorphic(p, q *Pattern) bool {
	if p.N() != q.N() || p.Size() != q.Size() {
		return false
	}
	return p.CanonicalCode() == q.CanonicalCode()
}

// CanonicalCodeUnpivoted returns a code identical exactly for patterns
// isomorphic when pivots are ignored. GFD implication does not see pivots,
// so ParCover groups Σ by this code: only then are implication checks
// between groups acyclic (Lemma 6).
func (p *Pattern) CanonicalCodeUnpivoted() string {
	if p.codeUnpivoted == "" {
		p.codeUnpivoted = p.minCode(false)
	}
	return p.codeUnpivoted
}

// minCode returns the byte-wise least encoding of p over every
// permutation of its variables; pivoted fixes the pivot at position 0.
// The encoding of a permutation lists the node labels by position,
// joined by ',', then '|', then the permuted edges sorted by (source,
// destination, label), each as "src>dst:label;", then "@0" when pivoted.
// Every permutation is tried: ordering positions by label first would
// pick a different minimum when a label holds a byte below ',' or '|'.
func (p *Pattern) minCode(pivoted bool) string {
	n := p.N()
	// Codes have one length while positions are one digit: size both
	// buffers for it up front.
	size := 3
	for _, l := range p.NodeLabels {
		size += len(l) + 1
	}
	for _, e := range p.Edges {
		size += len(e.Label) + 5
	}
	ints, mem := make([]int, 2*n), make([]byte, 2*size)
	c := coder{
		p:       p,
		pivoted: pivoted,
		perm:    ints[:n],
		at:      ints[n:],
		used:    make([]bool, n),
		edges:   make([]Edge, len(p.Edges)),
		buf:     mem[:0:size],
		best:    mem[size:size],
	}
	first := 0
	if pivoted {
		c.perm[p.Pivot], c.at[0], c.used[0] = 0, p.Pivot, true
		first = 1
	}
	c.place(0, first)
	return string(c.best)
}

// coder is minCode's scratch: the permutation being tried (perm[v] is
// variable v's position, at its inverse), the permuted edges, and the
// encoding of the current and of the least permutation so far (found
// once there is one).
type coder struct {
	p         *Pattern
	pivoted   bool
	perm, at  []int
	used      []bool
	edges     []Edge
	buf, best []byte
	found     bool
}

// place assigns positions to the variables from v on, skipping the
// pivot when it is fixed, and encodes each complete permutation.
func (c *coder) place(v, first int) {
	n := len(c.perm)
	if c.pivoted && v == c.p.Pivot {
		v++
	}
	if v >= n {
		c.encode()
		return
	}
	for pos := first; pos < n; pos++ {
		if c.used[pos] {
			continue
		}
		c.perm[v], c.at[pos], c.used[pos] = pos, v, true
		c.place(v+1, first)
		c.used[pos] = false
	}
}

// encode writes the current permutation's code into buf and keeps it as
// best when it is the least so far.
func (c *coder) encode() {
	b := c.buf[:0]
	for pos, v := range c.at {
		if pos > 0 {
			b = append(b, ',')
		}
		b = append(b, c.p.NodeLabels[v]...)
	}
	b = append(b, '|')
	es := c.edges
	for i, e := range c.p.Edges {
		e = Edge{Src: c.perm[e.Src], Dst: c.perm[e.Dst], Label: e.Label}
		j := i
		for ; j > 0 && edgeLess(e, es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
	for _, e := range es {
		b = strconv.AppendInt(b, int64(e.Src), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(e.Dst), 10)
		b = append(b, ':')
		b = append(b, e.Label...)
		b = append(b, ';')
	}
	if c.pivoted {
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(c.perm[c.p.Pivot]), 10)
	}
	if !c.found || bytes.Compare(b, c.best) < 0 {
		c.buf, c.best, c.found = c.best, b, true
	} else {
		c.buf = b
	}
}

// edgeLess orders edges by source, destination, then label.
func edgeLess(a, b Edge) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.Label < b.Label
}

// LabelProfileCompatible is a cheap necessary condition for sub to embed
// into super: every concrete node (edge) label of sub must occur in super
// at least as often, and sizes must not exceed super's. Used to prune
// pairwise embedding tests during cover grouping. Patterns have a few
// nodes, so counting labels by scanning is cheaper than hashing them.
func LabelProfileCompatible(sub, super *Pattern) bool {
	if sub.N() > super.N() || sub.Size() > super.Size() {
		return false
	}
	for _, l := range sub.NodeLabels {
		if l != Wildcard && countOf(sub.NodeLabels, l) > countOf(super.NodeLabels, l) {
			return false
		}
	}
	for _, e := range sub.Edges {
		if e.Label != Wildcard && edgeCountOf(sub.Edges, e.Label) > edgeCountOf(super.Edges, e.Label) {
			return false
		}
	}
	return true
}

func countOf(labels []string, l string) int {
	n := 0
	for _, m := range labels {
		if m == l {
			n++
		}
	}
	return n
}

func edgeCountOf(edges []Edge, l string) int {
	n := 0
	for _, e := range edges {
		if e.Label == l {
			n++
		}
	}
	return n
}
