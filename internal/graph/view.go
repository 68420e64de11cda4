package graph

import (
	"fmt"
	"sort"
	"sync"
)

// View is the read-only matching surface of a graph: the interned CSR
// label-run adjacency plus the node store (labels, attributes) and the
// per-view cache of derived structures. Both a full *Graph and a
// fragment-local *SubCSR satisfy it, so the same compiled match plans and
// columnar table joins run unchanged against a whole graph or one
// worker's fragment.
//
// All NodeIDs exposed by a View are global (the owning graph's ID space)
// and all LabelIDs come from the owning graph's symbol table; a view
// restricts the *edge set*, never the node store. Implementations must be
// immutable once published and safe for concurrent readers.
type View interface {
	// NumNodes reports the number of nodes of the underlying node store.
	NumNodes() int
	// NumEdges reports the number of edges visible through this view.
	NumEdges() int
	// NodeLabelID returns the interned label of node v.
	NodeLabelID(v NodeID) LabelID
	// Attr returns the value of attribute a at node v and whether it
	// exists — the string shim; hot paths use the interned accessors below.
	Attr(v NodeID, a string) (string, bool)
	// LookupLabel resolves a label string against the shared symbol table
	// without interning it.
	LookupLabel(name string) (LabelID, bool)
	// LabelName returns the string of an interned label.
	LabelName(id LabelID) string
	// NumLabels reports the number of distinct interned labels (node and
	// edge labels share one table); LabelIDs are dense in [0, NumLabels).
	NumLabels() int
	// NumAttrs reports the number of distinct interned attribute names;
	// AttrIDs are dense in [0, NumAttrs).
	NumAttrs() int

	// LookupAttr resolves an attribute name without interning it; false
	// means no node of the underlying store carries it.
	LookupAttr(name string) (AttrID, bool)
	// AttrName returns the string of an interned attribute name.
	AttrName(id AttrID) string
	// LookupValue resolves an attribute value against the shared value
	// pool; false means the value occurs nowhere in the store.
	LookupValue(val string) (ValueID, bool)
	// ValueName returns the string of an interned attribute value.
	ValueName(id ValueID) string
	// NumValues reports the number of distinct interned attribute values —
	// the bound dense ValueID-indexed scratch is sized to.
	NumValues() int
	// AttrColumn returns attribute a's compiled column: the flat interned
	// store literal evaluation scans. Node-level — shared by every view of
	// one graph, like the label store.
	AttrColumn(a AttrID) AttrColumn
	// AttrValueID returns the interned value of attribute a at node v, or
	// NoValue if absent.
	AttrValueID(v NodeID, a AttrID) ValueID
	// NodesByLabelID returns the nodes carrying the given node label,
	// ascending. Node-level: unaffected by the view's edge restriction.
	NodesByLabelID(l LabelID) []NodeID

	// OutRuns / InRuns return the half-open run index range of v's
	// adjacency under this view; run indexes are only meaningful with the
	// matching OutRun*/InRun* accessors of the same view.
	OutRuns(v NodeID) (lo, hi int)
	InRuns(v NodeID) (lo, hi int)
	OutRunLabel(r int) LabelID
	InRunLabel(r int) LabelID
	OutRunNodes(r int) []NodeID
	InRunNodes(r int) []NodeID
	// OutTo / InFrom return the neighbours of v under edge label l
	// (ascending, shared storage); l must be concrete (not NoLabel).
	OutTo(v NodeID, l LabelID) []NodeID
	InFrom(v NodeID, l LabelID) []NodeID
	// HasEdgeID reports whether src --l--> dst is visible through the
	// view; l == NoLabel matches any label.
	HasEdgeID(src, dst NodeID, l LabelID) bool

	// EdgeLabelCount reports how many visible edges carry label l; l ==
	// NoLabel returns the total edge count. This is the per-label run
	// statistic selectivity-ordered match plans are built from.
	EdgeLabelCount(l LabelID) int

	// PlanCache is the view's cache of derived read-only structures
	// (compiled match plans), keyed per pattern. Each view has its own:
	// plans compiled against a fragment must not leak to the full graph.
	PlanCache() *sync.Map
}

// Compile-time interface checks: the full graph and the fragment view
// share one matching surface.
var (
	_ View = (*Graph)(nil)
	_ View = (*SubCSR)(nil)
)

// IEdge is an interned edge triple — the unit a SubCSR is built from and
// the unit a vertex cut assigns to fragments. Src/Dst are global NodeIDs,
// Label a LabelID of the owning graph's symbol table.
type IEdge struct {
	Src, Dst NodeID
	Label    LabelID
}

// EdgeBounds bounds the nodes a view's edges touch: every edge's source
// lies in [SrcLo, SrcHi) and its destination in [DstLo, DstHi). A probe
// of the out-edges of a node outside the source range, or of the
// in-edges of one outside the destination range, is empty without a
// lookup. An edgeless view has empty ranges.
type EdgeBounds struct {
	SrcLo, SrcHi, DstLo, DstHi NodeID
}

// SubCSR is a fragment-local CSR view over a subset of one graph's edges:
// its own flat adjacency arrays with per-node per-label runs, indexed by
// the *global* NodeIDs and LabelIDs of the base graph (nothing is
// remapped), with the node store (labels, attributes, symbol table)
// shared with the base graph. Match rows produced against a SubCSR are
// therefore globally meaningful and can be unioned across fragments
// without translation — which is what lets ParDis workers join against
// real per-fragment indexes and still assemble byte-identical global
// results.
//
// A SubCSR is immutable after construction and safe for concurrent
// readers. It does not track later mutations of the base graph.
type SubCSR struct {
	base     View
	numEdges int

	outTo, inTo             []NodeID
	outRunNode, inRunNode   []uint32
	outRunLabel, inRunLabel []LabelID
	outRunOff, inRunOff     []uint32

	edgeLabelCount []int
	bounds         EdgeBounds
	planCache      sync.Map
}

// NewSubCSR builds the fragment-local CSR view of the given edge subset
// of base. The base may be a full *Graph or any other View whose node
// store the fragment should share — in particular a snapshot-backed
// store.MappedGraph, which is how spilled fragments reattach. Edges must
// reference existing nodes and interned labels of base; duplicates are
// de-duplicated like Finalize does. The input slice is not retained or
// mutated.
func NewSubCSR(base View, edges []IEdge) *SubCSR {
	if g, ok := base.(*Graph); ok {
		g.requireFinal()
	}
	raw := make([]rawEdge, len(edges))
	for i, e := range edges {
		if int(e.Src) >= base.NumNodes() || int(e.Dst) >= base.NumNodes() {
			panic(fmt.Sprintf("graph: NewSubCSR: edge (%d,%d) out of node range %d", e.Src, e.Dst, base.NumNodes()))
		}
		raw[i] = rawEdge{src: e.Src, dst: e.Dst, label: e.Label}
	}
	sort.Slice(raw, func(i, j int) bool {
		a, b := raw[i], raw[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.dst < b.dst
	})
	w := 0
	for i, e := range raw {
		if i == 0 || e != raw[i-1] {
			raw[w] = e
			w++
		}
	}
	raw = raw[:w]

	s := &SubCSR{base: base, numEdges: len(raw)}
	n := base.NumNodes()
	s.outTo, s.outRunNode, s.outRunLabel, s.outRunOff = buildCSR(raw, n,
		func(e rawEdge) (NodeID, LabelID, NodeID) { return e.src, e.label, e.dst })

	s.edgeLabelCount = make([]int, base.NumLabels())
	for _, e := range raw {
		s.edgeLabelCount[e.label]++
	}
	if len(raw) > 0 {
		s.bounds.SrcLo, s.bounds.SrcHi = raw[0].src, raw[len(raw)-1].src+1
	}

	sort.Slice(raw, func(i, j int) bool {
		a, b := raw[i], raw[j]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.label != b.label {
			return a.label < b.label
		}
		return a.src < b.src
	})
	s.inTo, s.inRunNode, s.inRunLabel, s.inRunOff = buildCSR(raw, n,
		func(e rawEdge) (NodeID, LabelID, NodeID) { return e.dst, e.label, e.src })
	if len(raw) > 0 {
		s.bounds.DstLo, s.bounds.DstHi = raw[0].dst, raw[len(raw)-1].dst+1
	}
	return s
}

// EdgeBounds returns the node ranges the fragment's edges touch.
func (s *SubCSR) EdgeBounds() EdgeBounds { return s.bounds }

// Base returns the view whose node store the fragment shares.
func (s *SubCSR) Base() View { return s.base }

// --- Node store: delegated to the base graph ---

// NumNodes implements View (the full node store: a view restricts edges,
// not nodes — vertex-cut fragments replicate endpoint nodes).
func (s *SubCSR) NumNodes() int { return s.base.NumNodes() }

// NodeLabelID implements View.
func (s *SubCSR) NodeLabelID(v NodeID) LabelID { return s.base.NodeLabelID(v) }

// Attr implements View.
func (s *SubCSR) Attr(v NodeID, a string) (string, bool) { return s.base.Attr(v, a) }

// LookupAttr implements View.
func (s *SubCSR) LookupAttr(name string) (AttrID, bool) { return s.base.LookupAttr(name) }

// AttrName implements View.
func (s *SubCSR) AttrName(id AttrID) string { return s.base.AttrName(id) }

// LookupValue implements View.
func (s *SubCSR) LookupValue(val string) (ValueID, bool) { return s.base.LookupValue(val) }

// ValueName implements View.
func (s *SubCSR) ValueName(id ValueID) string { return s.base.ValueName(id) }

// NumValues implements View.
func (s *SubCSR) NumValues() int { return s.base.NumValues() }

// AttrColumn implements View.
func (s *SubCSR) AttrColumn(a AttrID) AttrColumn { return s.base.AttrColumn(a) }

// AttrValueID implements View.
func (s *SubCSR) AttrValueID(v NodeID, a AttrID) ValueID { return s.base.AttrValueID(v, a) }

// LookupLabel implements View.
func (s *SubCSR) LookupLabel(name string) (LabelID, bool) { return s.base.LookupLabel(name) }

// LabelName implements View.
func (s *SubCSR) LabelName(id LabelID) string { return s.base.LabelName(id) }

// NumLabels implements View.
func (s *SubCSR) NumLabels() int { return s.base.NumLabels() }

// NumAttrs implements View.
func (s *SubCSR) NumAttrs() int { return s.base.NumAttrs() }

// NodesByLabelID implements View.
func (s *SubCSR) NodesByLabelID(l LabelID) []NodeID { return s.base.NodesByLabelID(l) }

// --- Fragment-local adjacency ---

// NumEdges implements View: the number of edges in the fragment.
func (s *SubCSR) NumEdges() int { return s.numEdges }

// OutRuns implements View.
func (s *SubCSR) OutRuns(v NodeID) (lo, hi int) {
	return int(s.outRunNode[v]), int(s.outRunNode[v+1])
}

// InRuns implements View.
func (s *SubCSR) InRuns(v NodeID) (lo, hi int) {
	return int(s.inRunNode[v]), int(s.inRunNode[v+1])
}

// OutRunLabel implements View.
func (s *SubCSR) OutRunLabel(r int) LabelID { return s.outRunLabel[r] }

// InRunLabel implements View.
func (s *SubCSR) InRunLabel(r int) LabelID { return s.inRunLabel[r] }

// OutRunNodes implements View. Read-only shared storage.
func (s *SubCSR) OutRunNodes(r int) []NodeID {
	return s.outTo[s.outRunOff[r]:s.outRunOff[r+1]]
}

// InRunNodes implements View. Read-only shared storage.
func (s *SubCSR) InRunNodes(r int) []NodeID {
	return s.inTo[s.inRunOff[r]:s.inRunOff[r+1]]
}

// OutTo implements View.
func (s *SubCSR) OutTo(v NodeID, l LabelID) []NodeID {
	lo, hi := s.OutRuns(v)
	if r := FindRun(s.outRunLabel, lo, hi, l); r >= 0 {
		return s.OutRunNodes(r)
	}
	return nil
}

// InFrom implements View.
func (s *SubCSR) InFrom(v NodeID, l LabelID) []NodeID {
	lo, hi := s.InRuns(v)
	if r := FindRun(s.inRunLabel, lo, hi, l); r >= 0 {
		return s.InRunNodes(r)
	}
	return nil
}

// HasEdgeID implements View.
func (s *SubCSR) HasEdgeID(src, dst NodeID, l LabelID) bool {
	if l == NoLabel {
		lo, hi := s.OutRuns(src)
		for r := lo; r < hi; r++ {
			if ContainsNode(s.OutRunNodes(r), dst) {
				return true
			}
		}
		return false
	}
	return ContainsNode(s.OutTo(src, l), dst)
}

// EdgeLabelCount implements View.
func (s *SubCSR) EdgeLabelCount(l LabelID) int {
	if l == NoLabel {
		return s.numEdges
	}
	if int(l) >= len(s.edgeLabelCount) {
		return 0
	}
	return s.edgeLabelCount[int(l)]
}

// PlanCache implements View: the fragment's own compiled-plan cache,
// independent of the base graph's.
func (s *SubCSR) PlanCache() *sync.Map { return &s.planCache }

// Edges invokes fn for every edge of the fragment, grouped by source node
// and sorted by (label, dst) within it. It stops early if fn returns
// false.
func (s *SubCSR) Edges(fn func(IEdge) bool) { ViewEdges(s, fn) }

// String summarises the view.
func (s *SubCSR) String() string {
	return fmt.Sprintf("subcsr{%d edges of %s}", s.numEdges, s.base)
}

// FlatCSR is the raw CSR adjacency of a view: the flat arrays behind the
// run accessors, exposed read-only for serialisation (internal/store dumps
// them straight into snapshot sections). Out-edges of all nodes are
// concatenated in OutTo grouped by source and sorted by (label, dst); node
// v's runs are OutRunNode[v]..OutRunNode[v+1]; run r has label
// OutRunLabel[r] and spans OutTo[OutRunOff[r]:OutRunOff[r+1]]. The In*
// arrays mirror this with InTo holding edge sources. All slices are shared
// storage: treat them as immutable.
type FlatCSR struct {
	OutTo, InTo             []NodeID
	OutRunNode, InRunNode   []uint32
	OutRunLabel, InRunLabel []LabelID
	OutRunOff, InRunOff     []uint32
}

// FlatCSR returns the graph's compiled CSR arrays (finalizing first if
// needed). Read-only shared storage.
func (g *Graph) FlatCSR() FlatCSR {
	g.requireFinal()
	return FlatCSR{
		OutTo: g.outTo, InTo: g.inTo,
		OutRunNode: g.outRunNode, InRunNode: g.inRunNode,
		OutRunLabel: g.outRunLabel, InRunLabel: g.inRunLabel,
		OutRunOff: g.outRunOff, InRunOff: g.inRunOff,
	}
}

// FlatCSR returns the fragment's CSR arrays. Read-only shared storage.
func (s *SubCSR) FlatCSR() FlatCSR {
	return FlatCSR{
		OutTo: s.outTo, InTo: s.inTo,
		OutRunNode: s.outRunNode, InRunNode: s.inRunNode,
		OutRunLabel: s.outRunLabel, InRunLabel: s.inRunLabel,
		OutRunOff: s.outRunOff, InRunOff: s.inRunOff,
	}
}

// NodeLabels returns the per-node label array indexed by NodeID. Read-only
// shared storage.
func (g *Graph) NodeLabels() []LabelID { return g.labels }

// NodeLabels returns the node-label array of the underlying node store.
func (s *SubCSR) NodeLabels() []LabelID {
	type labeler interface{ NodeLabels() []LabelID }
	if b, ok := s.base.(labeler); ok {
		return b.NodeLabels()
	}
	labels := make([]LabelID, s.base.NumNodes())
	for v := range labels {
		labels[v] = s.base.NodeLabelID(NodeID(v))
	}
	return labels
}

// ViewEdges invokes fn for every edge visible through v, grouped by source
// node and sorted by (label, dst) within it — the interned counterpart of
// (*Graph).Edges that works against any View. It stops early if fn returns
// false.
func ViewEdges(v View, fn func(IEdge) bool) {
	n := v.NumNodes()
	for s := 0; s < n; s++ {
		lo, hi := v.OutRuns(NodeID(s))
		for r := lo; r < hi; r++ {
			l := v.OutRunLabel(r)
			for _, d := range v.OutRunNodes(r) {
				if !fn(IEdge{Src: NodeID(s), Dst: d, Label: l}) {
					return
				}
			}
		}
	}
}
