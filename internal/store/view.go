package store

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/graph"
)

// MappedGraph is a snapshot opened as a graph.View: every array — CSR
// adjacency, run tables, label index, attribute columns, symbol pools —
// aliases the mapped (or read) file bytes zero-copy, so matching, literal
// evaluation and discovery run against it exactly as against a heap
// *graph.Graph, with no rebuild. It also satisfies Source, so a
// MappedGraph can be re-serialised.
//
// A MappedGraph is immutable and safe for concurrent readers. Strings
// returned by the Name accessors and the lazily built Lookup tables alias
// the mapping: they are valid only until Close. Close releases the
// mapping; any use after Close is a caller error (accessors panic on the
// nil'd arrays rather than reading unmapped memory).
type MappedGraph struct {
	data  []byte
	unmap func() error

	numNodes  int
	numEdges  int
	numLabels int
	numAttrs  int
	numValues int

	nodeLabels []graph.LabelID

	outTo, inTo             []graph.NodeID
	outRunNode, inRunNode   []uint32
	outRunLabel, inRunLabel []graph.LabelID
	outRunOff, inRunOff     []uint32
	// bounds is the node ranges the edges touch, read from the run
	// indexes at open.
	bounds graph.EdgeBounds

	byLabelOff     []uint32
	byLabelNodes   []graph.NodeID
	edgeLabelCount []uint64

	labelOff                     []uint32
	attrOff                      []uint32
	valOff                       []uint32
	labelBlob, attrBlob, valBlob []byte

	cols []graph.AttrColumn
	frag *FragmentInfo

	// degrees is the planner's degree statistics, decoded from secDegree
	// when the snapshot carries it; for older snapshots it is computed
	// lazily on first DegreeStats call (degOnce).
	degrees *graph.DegreeStats
	degOnce sync.Once

	planCache sync.Map

	// Reverse lookups are the one surface with no flat on-disk form; they
	// are built lazily on first Lookup* call so Open stays a validation
	// scan, and the literal-binding paths that need them pay once.
	lookupOnce sync.Once
	labelIDs   map[string]graph.LabelID
	attrIDs    map[string]graph.AttrID
	valIDs     map[string]graph.ValueID

	closeOnce sync.Once
	closeErr  error
}

// Compile-time checks: a snapshot view is a full matching surface and can
// itself be re-serialised.
var (
	_ graph.View = (*MappedGraph)(nil)
	_ Source     = (*MappedGraph)(nil)
)

// Close releases the file mapping. The MappedGraph, and every slice,
// string or lookup table obtained from it, must not be used afterwards.
// Close is idempotent and safe to call from multiple goroutines: the
// mapping is released exactly once, and every call returns the error of
// that single release. (Error-path cleanup — e.g. a failed Attach closing
// everything it opened plus deferred closes — can therefore double-Close
// without unmapping a region another mapping may since have reused.)
func (m *MappedGraph) Close() error {
	m.closeOnce.Do(func() {
		m.data = nil
		m.nodeLabels = nil
		m.outTo, m.inTo = nil, nil
		m.outRunNode, m.inRunNode = nil, nil
		m.outRunLabel, m.inRunLabel = nil, nil
		m.outRunOff, m.inRunOff = nil, nil
		m.byLabelOff, m.byLabelNodes, m.edgeLabelCount = nil, nil, nil
		m.labelOff, m.attrOff, m.valOff = nil, nil, nil
		m.labelBlob, m.attrBlob, m.valBlob = nil, nil, nil
		m.cols = nil
		m.labelIDs, m.attrIDs, m.valIDs = nil, nil, nil
		if m.unmap != nil {
			u := m.unmap
			m.unmap = nil
			m.closeErr = u()
		}
	})
	return m.closeErr
}

// Fragment returns the ParDis fragment metadata carried by the snapshot,
// if any.
func (m *MappedGraph) Fragment() (FragmentInfo, bool) {
	if m.frag == nil {
		return FragmentInfo{}, false
	}
	return *m.frag, true
}

// --- Node store ---

// NumNodes implements graph.View.
func (m *MappedGraph) NumNodes() int { return m.numNodes }

// NumEdges implements graph.View.
func (m *MappedGraph) NumEdges() int { return m.numEdges }

// NumLabels implements graph.View.
func (m *MappedGraph) NumLabels() int { return m.numLabels }

// NumAttrs implements graph.View.
func (m *MappedGraph) NumAttrs() int { return m.numAttrs }

// NumValues implements graph.View.
func (m *MappedGraph) NumValues() int { return m.numValues }

// NodeLabelID implements graph.View.
func (m *MappedGraph) NodeLabelID(v graph.NodeID) graph.LabelID { return m.nodeLabels[v] }

// NodeLabels implements Source. Read-only shared storage.
func (m *MappedGraph) NodeLabels() []graph.LabelID { return m.nodeLabels }

// str returns string i of a pool, aliasing the mapped blob (no copy).
func str(offs []uint32, blob []byte, i uint32) string {
	lo, hi := offs[i], offs[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&blob[lo], hi-lo)
}

// LabelName implements graph.View.
func (m *MappedGraph) LabelName(id graph.LabelID) string {
	return str(m.labelOff, m.labelBlob, uint32(id))
}

// AttrName implements graph.View.
func (m *MappedGraph) AttrName(id graph.AttrID) string { return str(m.attrOff, m.attrBlob, uint32(id)) }

// ValueName implements graph.View.
func (m *MappedGraph) ValueName(id graph.ValueID) string { return str(m.valOff, m.valBlob, uint32(id)) }

// lookups builds the reverse symbol tables once. Map keys alias the
// mapped blobs — no string copies.
func (m *MappedGraph) lookups() {
	m.lookupOnce.Do(func() {
		labels := make(map[string]graph.LabelID, m.numLabels)
		for i := 0; i < m.numLabels; i++ {
			labels[m.LabelName(graph.LabelID(i))] = graph.LabelID(i)
		}
		attrs := make(map[string]graph.AttrID, m.numAttrs)
		for i := 0; i < m.numAttrs; i++ {
			attrs[m.AttrName(graph.AttrID(i))] = graph.AttrID(i)
		}
		vals := make(map[string]graph.ValueID, m.numValues)
		for i := 0; i < m.numValues; i++ {
			vals[m.ValueName(graph.ValueID(i))] = graph.ValueID(i)
		}
		m.labelIDs, m.attrIDs, m.valIDs = labels, attrs, vals
	})
}

// LookupLabel implements graph.View.
func (m *MappedGraph) LookupLabel(name string) (graph.LabelID, bool) {
	m.lookups()
	id, ok := m.labelIDs[name]
	return id, ok
}

// LookupAttr implements graph.View.
func (m *MappedGraph) LookupAttr(name string) (graph.AttrID, bool) {
	m.lookups()
	id, ok := m.attrIDs[name]
	return id, ok
}

// LookupValue implements graph.View.
func (m *MappedGraph) LookupValue(val string) (graph.ValueID, bool) {
	m.lookups()
	id, ok := m.valIDs[val]
	return id, ok
}

// AttrColumn implements graph.View.
func (m *MappedGraph) AttrColumn(a graph.AttrID) graph.AttrColumn {
	if int(a) >= len(m.cols) {
		return graph.AttrColumn{}
	}
	return m.cols[a]
}

// AttrValueID implements graph.View.
func (m *MappedGraph) AttrValueID(v graph.NodeID, a graph.AttrID) graph.ValueID {
	return m.AttrColumn(a).ValueAt(v)
}

// Attr implements graph.View (the string shim).
func (m *MappedGraph) Attr(v graph.NodeID, a string) (string, bool) {
	aid, ok := m.LookupAttr(a)
	if !ok {
		return "", false
	}
	val := m.cols[aid].ValueAt(v)
	if val == graph.NoValue {
		return "", false
	}
	return m.ValueName(val), true
}

// NodesByLabelID implements graph.View. Read-only shared storage.
func (m *MappedGraph) NodesByLabelID(l graph.LabelID) []graph.NodeID {
	if int(l) >= m.numLabels {
		return nil
	}
	return m.byLabelNodes[m.byLabelOff[l]:m.byLabelOff[l+1]]
}

// --- CSR adjacency ---

// EdgeBounds returns the node ranges the snapshot's edges touch, so the
// extend kernel can narrow a worker's views to the spilled fragments that
// can hold a row's edges, as it does for heap SubCSRs.
func (m *MappedGraph) EdgeBounds() graph.EdgeBounds { return m.bounds }

// runSpan returns the node range [lo, hi) from the first to the last node
// whose window of the monotone run index rn holds a run — empty when none
// does. Every edge sits in a run, so the range bounds the edges' nodes on
// that side. Two binary searches.
func runSpan(rn []uint32) (lo, hi graph.NodeID) {
	n := len(rn) - 1
	if n < 1 || rn[0] == rn[n] {
		return 0, 0
	}
	lo = graph.NodeID(sort.Search(n, func(v int) bool { return rn[v+1] > rn[0] }))
	hi = graph.NodeID(sort.Search(n, func(v int) bool { return rn[v] == rn[n] }))
	return lo, hi
}

// OutRuns implements graph.View.
func (m *MappedGraph) OutRuns(v graph.NodeID) (lo, hi int) {
	return int(m.outRunNode[v]), int(m.outRunNode[v+1])
}

// InRuns implements graph.View.
func (m *MappedGraph) InRuns(v graph.NodeID) (lo, hi int) {
	return int(m.inRunNode[v]), int(m.inRunNode[v+1])
}

// OutRunLabel implements graph.View.
func (m *MappedGraph) OutRunLabel(r int) graph.LabelID { return m.outRunLabel[r] }

// InRunLabel implements graph.View.
func (m *MappedGraph) InRunLabel(r int) graph.LabelID { return m.inRunLabel[r] }

// OutRunNodes implements graph.View. Read-only shared storage.
func (m *MappedGraph) OutRunNodes(r int) []graph.NodeID {
	return m.outTo[m.outRunOff[r]:m.outRunOff[r+1]]
}

// InRunNodes implements graph.View. Read-only shared storage.
func (m *MappedGraph) InRunNodes(r int) []graph.NodeID {
	return m.inTo[m.inRunOff[r]:m.inRunOff[r+1]]
}

// OutTo implements graph.View.
func (m *MappedGraph) OutTo(v graph.NodeID, l graph.LabelID) []graph.NodeID {
	lo, hi := m.OutRuns(v)
	if r := graph.FindRun(m.outRunLabel, lo, hi, l); r >= 0 {
		return m.OutRunNodes(r)
	}
	return nil
}

// InFrom implements graph.View.
func (m *MappedGraph) InFrom(v graph.NodeID, l graph.LabelID) []graph.NodeID {
	lo, hi := m.InRuns(v)
	if r := graph.FindRun(m.inRunLabel, lo, hi, l); r >= 0 {
		return m.InRunNodes(r)
	}
	return nil
}

// HasEdgeID implements graph.View.
func (m *MappedGraph) HasEdgeID(src, dst graph.NodeID, l graph.LabelID) bool {
	if l == graph.NoLabel {
		lo, hi := m.OutRuns(src)
		for r := lo; r < hi; r++ {
			if graph.ContainsNode(m.OutRunNodes(r), dst) {
				return true
			}
		}
		return false
	}
	return graph.ContainsNode(m.OutTo(src, l), dst)
}

// EdgeLabelCount implements graph.View.
func (m *MappedGraph) EdgeLabelCount(l graph.LabelID) int {
	if l == graph.NoLabel {
		return m.numEdges
	}
	if int(l) >= len(m.edgeLabelCount) {
		return 0
	}
	return int(m.edgeLabelCount[l])
}

// PlanCache implements graph.View: the snapshot view's own compiled-plan
// cache (plans never outlive the mapping they were compiled against).
func (m *MappedGraph) PlanCache() *sync.Map { return &m.planCache }

// DegreeStats implements graph.DegreeStatser: the degree statistics
// decoded from the snapshot's degree section, or — for snapshots written
// before the section existed — computed once from the mapped run tables.
// The returned struct is heap-allocated either way and stays valid after
// Close.
func (m *MappedGraph) DegreeStats() *graph.DegreeStats {
	m.degOnce.Do(func() {
		if m.degrees == nil {
			m.degrees = graph.NewDegreeStats(m)
		}
	})
	return m.degrees
}

// FlatCSR implements Source. Read-only shared storage.
func (m *MappedGraph) FlatCSR() graph.FlatCSR {
	return graph.FlatCSR{
		OutTo: m.outTo, InTo: m.inTo,
		OutRunNode: m.outRunNode, InRunNode: m.inRunNode,
		OutRunLabel: m.outRunLabel, InRunLabel: m.inRunLabel,
		OutRunOff: m.outRunOff, InRunOff: m.inRunOff,
	}
}

// String summarises the snapshot view.
func (m *MappedGraph) String() string {
	if m.frag != nil {
		return fmt.Sprintf("snapshot{worker %d fragment: %d nodes, %d edges, owns [%d,%d)}",
			m.frag.Worker, m.numNodes, m.numEdges, m.frag.NodeLo, m.frag.NodeHi)
	}
	return fmt.Sprintf("snapshot{%d nodes, %d edges, %d labels}", m.numNodes, m.numEdges, m.numLabels)
}
