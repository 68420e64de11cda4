// Package graph implements the directed, labelled property graphs
// G = (V, E, L, F_A) of Fan et al., "Discovering Graph Functional
// Dependencies" (SIGMOD 2018), Section 2.1.
//
// Nodes and edges carry labels drawn from an alphabet Θ; every node
// additionally carries a tuple of attribute/value pairs (its properties).
// Graphs are schemaless: different nodes, even with the same label, may
// carry different attribute sets.
//
// Storage is tuned for the access patterns of subgraph-isomorphism
// matching. All labels are interned into dense LabelIDs by a per-graph
// symbol table (see intern.go), and Finalize compiles adjacency into flat
// CSR arrays sorted by (label, neighbour) with per-node per-label runs: an
// anchored scan for one edge label is a short run lookup yielding a
// contiguous []NodeID, and edge-existence tests are binary searches within
// a run — no string comparisons anywhere on the matching hot path. Node
// attributes live in the same regime (attrs.go): names intern to AttrIDs,
// values to a shared ValueID pool, and each attribute compiles into a
// dense or sparse flat column, so literal evaluation is an integer column
// scan with no map traffic. The string-based accessors (Out, In, HasEdge,
// NodesByLabel, Attr, Attrs, ...) remain as thin shims over the interned
// representation.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node in a Graph. IDs are dense: 0..NumNodes()-1.
type NodeID uint32

// HalfEdge is one endpoint's view of an edge: the label of the edge and the
// node at the other end.
type HalfEdge struct {
	Label string
	To    NodeID
}

// rawEdge is a staged edge held between AddEdge and Finalize.
type rawEdge struct {
	src, dst NodeID
	label    LabelID
}

// Graph is a directed labelled property multigraph. Parallel edges between
// the same ordered node pair are permitted provided their labels differ,
// which knowledge graphs require (e.g. two relations between the same pair
// of entities).
//
// A Graph is built incrementally with AddNode/AddEdge and finalized with
// Finalize, which interns labels and compiles the CSR indexes; accessors
// finalize lazily, so forgetting the call costs a rebuild, not correctness.
// The zero value is an empty graph ready for use.
type Graph struct {
	syms   *Symbols
	labels []LabelID // node label per node
	attrs  AttrStore // interned columnar attribute plane (attrs.go)

	raw      []rawEdge // staged edges; nil while finalized
	numEdges int       // exact only after Finalize

	// CSR adjacency, valid while finalized. Out-edges of all nodes are
	// concatenated in outTo, grouped by source and sorted by (label, dst);
	// each maximal (source, label) group is a "run". Node v's runs are
	// outRunNode[v]..outRunNode[v+1]; run r has label outRunLabel[r] and
	// spans outTo[outRunOff[r]:outRunOff[r+1]]. The in-CSR mirrors this
	// with inTo holding edge sources.
	outTo, inTo             []NodeID
	outRunNode, inRunNode   []uint32
	outRunLabel, inRunLabel []LabelID
	outRunOff, inRunOff     []uint32

	byLabel        [][]NodeID // node IDs per node-label LabelID, ascending
	edgeLabelCount []int      // edges per edge-label LabelID
	planCache      sync.Map   // opaque per-graph cache of derived structures
	finalized      bool

	keys []string // AddNode's attribute-name scratch
}

// New returns an empty graph pre-sized for n nodes and m edges.
func New(n, m int) *Graph {
	return &Graph{
		syms:   NewSymbols(),
		labels: make([]LabelID, 0, n),
		raw:    make([]rawEdge, 0, m),
	}
}

func (g *Graph) symtab() *Symbols {
	if g.syms == nil {
		g.syms = NewSymbols()
	}
	return g.syms
}

// ensureMutable moves the graph back to staged-edge form so AddEdge can
// append; the CSR indexes are rebuilt on the next Finalize.
func (g *Graph) ensureMutable() {
	if g.raw == nil && g.outTo != nil {
		raw := make([]rawEdge, 0, len(g.outTo))
		// Only nodes present at the last Finalize are covered by the CSR;
		// nodes added since then cannot have edges yet.
		for v := 0; v < len(g.outRunNode)-1; v++ {
			lo, hi := int(g.outRunNode[v]), int(g.outRunNode[v+1])
			for r := lo; r < hi; r++ {
				l := g.outRunLabel[r]
				for _, d := range g.outTo[g.outRunOff[r]:g.outRunOff[r+1]] {
					raw = append(raw, rawEdge{src: NodeID(v), dst: d, label: l})
				}
			}
		}
		g.raw = raw
		g.outTo, g.inTo = nil, nil
		g.outRunNode, g.inRunNode = nil, nil
		g.outRunLabel, g.inRunLabel = nil, nil
		g.outRunOff, g.inRunOff = nil, nil
	}
	g.finalized = false
}

// requireFinal lazily finalizes before an indexed read.
func (g *Graph) requireFinal() {
	if !g.finalized {
		g.Finalize()
	}
}

// AddNode appends a node with the given label and attribute tuple and
// returns its ID. The attrs map is interned into the graph's columnar
// attribute store and NOT retained: callers may reuse or mutate it freely
// afterwards (this is a contract change from the map-backed era, which
// kept the caller's map alive). A nil attrs is allowed. Attributes are
// interned in sorted name order, so a graph built by the same calls
// numbers its attributes and values the same way every time.
func (g *Graph) AddNode(label string, attrs map[string]string) NodeID {
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, g.symtab().Intern(label))
	g.keys = g.keys[:0]
	for k := range attrs {
		g.keys = append(g.keys, k)
	}
	slices.Sort(g.keys)
	for _, k := range g.keys {
		g.attrs.set(id, g.syms.InternAttr(k), g.syms.InternValue(attrs[k]))
	}
	g.finalized = false
	return id
}

// AddEdge inserts a directed edge src --label--> dst. Both endpoints must
// already exist. Duplicate (src, dst, label) triples are inserted as given;
// Finalize de-duplicates them.
func (g *Graph) AddEdge(src, dst NodeID, label string) {
	if int(src) >= len(g.labels) || int(dst) >= len(g.labels) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d, %q): node out of range (have %d nodes)", src, dst, label, len(g.labels)))
	}
	g.ensureMutable()
	g.raw = append(g.raw, rawEdge{src: src, dst: dst, label: g.symtab().Intern(label)})
	g.numEdges++
}

// Finalize de-duplicates the staged edges and compiles the CSR adjacency
// and label indexes. It must run after the last mutation and before any
// matching (indexed accessors call it lazily); it is idempotent. Finalizing
// invalidates the derived-structure cache (PlanCache).
func (g *Graph) Finalize() {
	// The attribute plane compiles independently of the CSR: a SetAttr
	// after a previous Finalize leaves the CSR valid but the columns
	// staged, so recompile them even when the early return below fires —
	// after Finalize returns, a graph is a safe concurrent reader across
	// both planes.
	g.requireAttrs()
	if g.finalized {
		return
	}
	// A mutation may have definalized the graph without restaging edges
	// (e.g. AddNode alone): pull the existing CSR back into raw form first,
	// or the rebuild below would silently drop every edge.
	g.ensureMutable()
	edges := g.raw
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.dst < b.dst
	})
	w := 0
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			edges[w] = e
			w++
		}
	}
	edges = edges[:w]
	g.numEdges = w

	g.edgeLabelCount = make([]int, g.symtab().Len())
	for _, e := range edges {
		g.edgeLabelCount[e.label]++
	}

	g.outTo, g.outRunNode, g.outRunLabel, g.outRunOff = buildCSR(edges, len(g.labels),
		func(e rawEdge) (NodeID, LabelID, NodeID) { return e.src, e.label, e.dst })

	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.src < b.src
	})
	g.inTo, g.inRunNode, g.inRunLabel, g.inRunOff = buildCSR(edges, len(g.labels),
		func(e rawEdge) (NodeID, LabelID, NodeID) { return e.dst, e.label, e.src })

	g.byLabel = make([][]NodeID, g.symtab().Len())
	for v, l := range g.labels {
		g.byLabel[l] = append(g.byLabel[l], NodeID(v))
	}
	g.raw = nil
	g.planCache.Clear()
	g.finalized = true
}

// buildCSR lays out edges (pre-sorted by key node, then label, then other
// endpoint) into the flat to/run arrays.
func buildCSR(edges []rawEdge, n int, key func(rawEdge) (NodeID, LabelID, NodeID)) (to []NodeID, runNode []uint32, runLabel []LabelID, runOff []uint32) {
	to = make([]NodeID, len(edges))
	runNode = make([]uint32, n+1)
	for i, e := range edges {
		src, label, other := key(e)
		to[i] = other
		if i > 0 {
			psrc, plabel, _ := key(edges[i-1])
			if psrc == src && plabel == label {
				continue
			}
		}
		runLabel = append(runLabel, label)
		runOff = append(runOff, uint32(i))
		runNode[src+1]++
	}
	runOff = append(runOff, uint32(len(edges)))
	for v := 0; v < n; v++ {
		runNode[v+1] += runNode[v]
	}
	return to, runNode, runLabel, runOff
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges reports the number of distinct (src, dst, label) edges. It is
// exact only after Finalize.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels reports the number of distinct interned labels (node and edge
// labels share the table).
func (g *Graph) NumLabels() int { return g.symtab().Len() }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) string { return g.syms.Name(g.labels[v]) }

// NodeLabelID returns the interned label of node v.
func (g *Graph) NodeLabelID(v NodeID) LabelID { return g.labels[v] }

// LookupLabel returns the interned ID of a label string, without interning
// it. A false result means no node or edge of the graph carries the label.
func (g *Graph) LookupLabel(name string) (LabelID, bool) {
	if g.syms == nil {
		return NoLabel, false
	}
	return g.syms.Lookup(name)
}

// LabelName returns the string of an interned label.
func (g *Graph) LabelName(id LabelID) string { return g.syms.Name(id) }

// PlanCache is an opaque per-graph cache for derived read-only structures
// (compiled match plans). It is cleared whenever Finalize rebuilds the
// indexes, tying cached lifetimes to the graph snapshot they were built
// from. Keys must be comparable; package match keys by *pattern.Pattern.
func (g *Graph) PlanCache() *sync.Map { return &g.planCache }

// requireAttrs compiles the attribute columns if needed. Attribute
// compilation is independent of edge finalization: SetAttr does not
// invalidate the CSR or the plan cache (plans are structural).
func (g *Graph) requireAttrs() {
	g.attrs.require(len(g.labels), g.symtab().NumAttrs())
}

// Attr returns the value of attribute a at node v and whether it exists.
// This is the string shim over the interned plane; hot paths resolve the
// attribute once (LookupAttr) and scan its AttrColumn.
func (g *Graph) Attr(v NodeID, a string) (string, bool) {
	aid, ok := g.LookupAttr(a)
	if !ok {
		return "", false
	}
	g.requireAttrs()
	val := g.attrs.value(v, aid)
	if val == NoValue {
		return "", false
	}
	return g.syms.ValueName(val), true
}

// Attrs returns the attribute tuple of node v, materialised as a fresh map
// per call (nil when the node carries no attributes). Hot paths should use
// AttrColumn / ForEachAttr instead.
func (g *Graph) Attrs(v NodeID) map[string]string {
	g.requireAttrs()
	var m map[string]string
	for a := range g.attrs.cols {
		if val := g.attrs.cols[a].ValueAt(v); val != NoValue {
			if m == nil {
				m = make(map[string]string, 4)
			}
			m[g.syms.AttrName(AttrID(a))] = g.syms.ValueName(val)
		}
	}
	return m
}

// SetAttr sets attribute a of node v to val. Used by mutation-based
// workloads (noise injection); the columns recompile on the next read.
func (g *Graph) SetAttr(v NodeID, a, val string) {
	if int(v) >= len(g.labels) {
		panic(fmt.Sprintf("graph: SetAttr(%d, %q, %q): node out of range (have %d nodes)", v, a, val, len(g.labels)))
	}
	g.attrs.set(v, g.symtab().InternAttr(a), g.symtab().InternValue(val))
}

// LookupAttr resolves an attribute name against the symbol table without
// interning it. A false result means no node of the graph carries it.
func (g *Graph) LookupAttr(name string) (AttrID, bool) {
	if g.syms == nil {
		return NoAttr, false
	}
	return g.syms.LookupAttr(name)
}

// AttrName returns the string of an interned attribute name.
func (g *Graph) AttrName(id AttrID) string { return g.syms.AttrName(id) }

// NumAttrs reports the number of distinct interned attribute names.
func (g *Graph) NumAttrs() int { return g.symtab().NumAttrs() }

// LookupValue resolves an attribute value against the shared value pool
// without interning it. A false result means the value occurs nowhere in
// the graph, so no literal mentioning it can hold.
func (g *Graph) LookupValue(val string) (ValueID, bool) {
	if g.syms == nil {
		return NoValue, false
	}
	return g.syms.LookupValue(val)
}

// ValueName returns the string of an interned attribute value.
func (g *Graph) ValueName(id ValueID) string { return g.syms.ValueName(id) }

// NumValues reports the number of distinct interned attribute values.
func (g *Graph) NumValues() int { return g.symtab().NumValues() }

// AttrColumn returns attribute a's compiled column — the unit literal
// evaluation scans. Shared read-only storage, valid until the next
// attribute mutation.
func (g *Graph) AttrColumn(a AttrID) AttrColumn {
	g.requireAttrs()
	return g.attrs.col(a)
}

// AttrValueID returns the interned value of attribute a at node v, or
// NoValue if v does not carry it.
func (g *Graph) AttrValueID(v NodeID, a AttrID) ValueID {
	g.requireAttrs()
	return g.attrs.value(v, a)
}

// --- Interned adjacency: the matching fast path ---

// OutRuns returns the half-open run index range [lo, hi) of v's
// out-adjacency; runs are sorted by ascending LabelID. Use OutRunLabel and
// OutRunNodes to inspect each run.
func (g *Graph) OutRuns(v NodeID) (lo, hi int) {
	g.requireFinal()
	return int(g.outRunNode[v]), int(g.outRunNode[v+1])
}

// InRuns is OutRuns for the in-adjacency.
func (g *Graph) InRuns(v NodeID) (lo, hi int) {
	g.requireFinal()
	return int(g.inRunNode[v]), int(g.inRunNode[v+1])
}

// OutRunLabel returns the edge label of out-run r (from OutRuns).
func (g *Graph) OutRunLabel(r int) LabelID { return g.outRunLabel[r] }

// InRunLabel returns the edge label of in-run r (from InRuns).
func (g *Graph) InRunLabel(r int) LabelID { return g.inRunLabel[r] }

// OutRunNodes returns the destinations of out-run r, ascending. The slice
// is shared storage; treat it as read-only.
func (g *Graph) OutRunNodes(r int) []NodeID {
	return g.outTo[g.outRunOff[r]:g.outRunOff[r+1]]
}

// InRunNodes returns the sources of in-run r, ascending. Read-only.
func (g *Graph) InRunNodes(r int) []NodeID {
	return g.inTo[g.inRunOff[r]:g.inRunOff[r+1]]
}

// OutTo returns the destinations of v's out-edges labelled l, ascending, or
// nil if there are none. The slice is shared storage; treat it as
// read-only. l must be a concrete label (not NoLabel).
func (g *Graph) OutTo(v NodeID, l LabelID) []NodeID {
	lo, hi := g.OutRuns(v)
	if r := FindRun(g.outRunLabel, lo, hi, l); r >= 0 {
		return g.OutRunNodes(r)
	}
	return nil
}

// InFrom returns the sources of v's in-edges labelled l, ascending, or nil.
// Read-only; l must be concrete.
func (g *Graph) InFrom(v NodeID, l LabelID) []NodeID {
	lo, hi := g.InRuns(v)
	if r := FindRun(g.inRunLabel, lo, hi, l); r >= 0 {
		return g.InRunNodes(r)
	}
	return nil
}

// FindRun locates label l in the ascending run-label window [lo, hi),
// returning the run index or -1. Windows are typically a handful of labels,
// so it scans linearly, falling back to binary search for wide windows.
// Exported so every View implementation (SubCSR, store.MappedGraph)
// resolves runs with the one shared search.
func FindRun(labels []LabelID, lo, hi int, l LabelID) int {
	if hi-lo > 16 {
		bound := hi // window end: runs past it belong to other nodes
		for lo < hi {
			mid := (lo + hi) / 2
			if labels[mid] < l {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < bound && labels[lo] == l {
			return lo
		}
		return -1
	}
	for r := lo; r < hi; r++ {
		switch {
		case labels[r] == l:
			return r
		case labels[r] > l:
			return -1
		}
	}
	return -1
}

// HasEdgeID reports whether the edge src --l--> dst exists; l == NoLabel
// matches any label.
func (g *Graph) HasEdgeID(src, dst NodeID, l LabelID) bool {
	if l == NoLabel {
		lo, hi := g.OutRuns(src)
		for r := lo; r < hi; r++ {
			if ContainsNode(g.OutRunNodes(r), dst) {
				return true
			}
		}
		return false
	}
	return ContainsNode(g.OutTo(src, l), dst)
}

// ContainsNode binary-searches an ascending run for v. Shared by every
// View implementation's edge-existence test.
func ContainsNode(ns []NodeID, v NodeID) bool {
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

// EdgeLabelCount reports how many edges carry edge label l; l == NoLabel
// returns the total edge count. This is the per-label run statistic that
// selectivity-ordered match plans consume.
func (g *Graph) EdgeLabelCount(l LabelID) int {
	g.requireFinal()
	if l == NoLabel {
		return g.numEdges
	}
	if int(l) >= len(g.edgeLabelCount) {
		return 0
	}
	return g.edgeLabelCount[int(l)]
}

// NodesByLabelID returns the IDs of nodes with the given interned label,
// ascending. Read-only shared storage.
func (g *Graph) NodesByLabelID(l LabelID) []NodeID {
	g.requireFinal()
	if int(l) >= len(g.byLabel) {
		return nil
	}
	return g.byLabel[l]
}

// --- String-based shims ---

// Out returns the out-adjacency of v as (label, destination) pairs, grouped
// by label run. It materialises a fresh slice per call: hot paths should
// use OutTo / OutRuns instead.
func (g *Graph) Out(v NodeID) []HalfEdge {
	lo, hi := g.OutRuns(v)
	out := make([]HalfEdge, 0, g.OutDegree(v))
	for r := lo; r < hi; r++ {
		name := g.syms.Name(g.outRunLabel[r])
		for _, d := range g.OutRunNodes(r) {
			out = append(out, HalfEdge{Label: name, To: d})
		}
	}
	return out
}

// In returns the in-adjacency of v; the To field of each HalfEdge holds the
// edge's source. Materialises a fresh slice per call: hot paths should use
// InFrom / InRuns instead.
func (g *Graph) In(v NodeID) []HalfEdge {
	lo, hi := g.InRuns(v)
	in := make([]HalfEdge, 0, g.InDegree(v))
	for r := lo; r < hi; r++ {
		name := g.syms.Name(g.inRunLabel[r])
		for _, s := range g.InRunNodes(r) {
			in = append(in, HalfEdge{Label: name, To: s})
		}
	}
	return in
}

// OutDegree returns the number of out-edges at v.
func (g *Graph) OutDegree(v NodeID) int {
	g.requireFinal()
	lo, hi := g.outRunNode[v], g.outRunNode[v+1]
	return int(g.outRunOff[hi] - g.outRunOff[lo])
}

// InDegree returns the number of in-edges at v.
func (g *Graph) InDegree(v NodeID) int {
	g.requireFinal()
	lo, hi := g.inRunNode[v], g.inRunNode[v+1]
	return int(g.inRunOff[hi] - g.inRunOff[lo])
}

// Degree returns the total degree of v.
func (g *Graph) Degree(v NodeID) int { return g.OutDegree(v) + g.InDegree(v) }

// HasEdge reports whether the edge src --label--> dst exists. If label is
// the empty string, any edge label matches.
func (g *Graph) HasEdge(src, dst NodeID, label string) bool {
	if label == "" {
		return g.HasEdgeID(src, dst, NoLabel)
	}
	l, ok := g.LookupLabel(label)
	if !ok {
		return false
	}
	return g.HasEdgeID(src, dst, l)
}

// EdgeLabelsBetween returns the labels of all edges src -> dst, sorted.
func (g *Graph) EdgeLabelsBetween(src, dst NodeID) []string {
	lo, hi := g.OutRuns(src)
	var labels []string
	for r := lo; r < hi; r++ {
		if ContainsNode(g.OutRunNodes(r), dst) {
			labels = append(labels, g.syms.Name(g.outRunLabel[r]))
		}
	}
	sort.Strings(labels)
	return labels
}

// NodesByLabel returns the IDs of nodes with the given label, in ascending
// order. The returned slice is shared storage; treat it as read-only.
func (g *Graph) NodesByLabel(label string) []NodeID {
	l, ok := g.LookupLabel(label)
	if !ok {
		return nil
	}
	return g.NodesByLabelID(l)
}

// Labels returns all distinct node labels, sorted.
func (g *Graph) Labels() []string {
	g.requireFinal()
	ls := make([]string, 0, len(g.byLabel))
	for l, nodes := range g.byLabel {
		if len(nodes) > 0 {
			ls = append(ls, g.syms.Name(LabelID(l)))
		}
	}
	sort.Strings(ls)
	return ls
}

// Edge is a fully materialised edge, used by iteration and partitioning.
type Edge struct {
	Src   NodeID
	Dst   NodeID
	Label string
}

// Edges invokes fn for every edge in the graph, grouped by source node and
// sorted by (label, dst) within it. It stops early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	g.requireFinal()
	for v := range g.labels {
		lo, hi := int(g.outRunNode[v]), int(g.outRunNode[v+1])
		for r := lo; r < hi; r++ {
			name := g.syms.Name(g.outRunLabel[r])
			for _, d := range g.OutRunNodes(r) {
				if !fn(Edge{Src: NodeID(v), Dst: d, Label: name}) {
					return
				}
			}
		}
	}
}

// Clone returns a deep copy of the graph, including attribute tuples. The
// copy has an empty PlanCache.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		syms:      g.symtab().Clone(),
		labels:    append([]LabelID(nil), g.labels...),
		attrs:     g.attrs.clone(),
		raw:       append([]rawEdge(nil), g.raw...),
		numEdges:  g.numEdges,
		finalized: g.finalized,

		outTo:       append([]NodeID(nil), g.outTo...),
		inTo:        append([]NodeID(nil), g.inTo...),
		outRunNode:  append([]uint32(nil), g.outRunNode...),
		inRunNode:   append([]uint32(nil), g.inRunNode...),
		outRunLabel: append([]LabelID(nil), g.outRunLabel...),
		inRunLabel:  append([]LabelID(nil), g.inRunLabel...),
		outRunOff:   append([]uint32(nil), g.outRunOff...),
		inRunOff:    append([]uint32(nil), g.inRunOff...),
	}
	// byLabel is rebuilt wholesale by Finalize and its inner slices are
	// never mutated in place afterwards, so sharing them is safe.
	c.byLabel = append([][]NodeID(nil), g.byLabel...)
	c.edgeLabelCount = append([]int(nil), g.edgeLabelCount...)
	c.Finalize()
	return c
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d nodes, %d edges, %d labels}", g.NumNodes(), g.NumEdges(), g.NumLabels())
}
