package graph

// Edge-label signatures: per node of a view, the set of labels on its
// outgoing and on its incoming edges in that view, folded into one
// 64-bit word each. A clear bit proves that the view holds no edge with
// that label at the node, so a probe for it would come back empty; labels
// whose IDs differ by a multiple of 64 share a bit, which only costs a
// probe the signature could not rule out. The extend kernel reads them to prove closing-edge
// children empty without touching the CSR.

// LabelSigs holds a view's signatures: bit LabelBit(l) of Out(v) is set
// if v has an outgoing edge labelled l in the view, and of In(v) if it
// has an incoming one. Each direction stores one word per node of the
// range its edges touch, so a fragment pays for the nodes it holds edges
// of, not for the whole node store. Immutable once built; safe for
// concurrent readers.
type LabelSigs struct {
	outLo, inLo NodeID
	out, in     []uint64
}

// LabelBit returns the signature bit of label l.
func LabelBit(l LabelID) uint64 { return 1 << (l & 63) }

// Out returns the signature of v's outgoing edges (0 if it has none).
func (s *LabelSigs) Out(v NodeID) uint64 {
	if i := v - s.outLo; uint(i) < uint(len(s.out)) {
		return s.out[i]
	}
	return 0
}

// In returns the signature of v's incoming edges (0 if it has none).
func (s *LabelSigs) In(v NodeID) uint64 {
	if i := v - s.inLo; uint(i) < uint(len(s.in)) {
		return s.in[i]
	}
	return 0
}

// newLabelSigs scans v's run tables and builds its signatures: O(nodes +
// runs), at most 16 bytes per node, one bit set per run.
func newLabelSigs(v View) *LabelSigs {
	s := &LabelSigs{}
	s.outLo, s.out = sigs(v.NumNodes(), v.OutRuns, v.OutRunLabel)
	s.inLo, s.in = sigs(v.NumNodes(), v.InRuns, v.InRunLabel)
	return s
}

// sigs builds one direction's signatures over the node range [lo, lo +
// len(words)) from the first to the last node that has runs.
func sigs(n int, runs func(NodeID) (int, int), label func(int) LabelID) (lo NodeID, words []uint64) {
	empty := func(v int) bool {
		r0, r1 := runs(NodeID(v))
		return r0 == r1
	}
	first, last := 0, n-1
	for first < n && empty(first) {
		first++
	}
	if first == n {
		return 0, nil
	}
	for empty(last) {
		last--
	}
	words = make([]uint64, last-first+1)
	for i := range words {
		r0, r1 := runs(NodeID(first + i))
		for r := r0; r < r1; r++ {
			words[i] |= LabelBit(label(r))
		}
	}
	return NodeID(first), words
}

// labelSigsKey is the PlanCache sentinel under which LabelSigsFor caches
// a view's signatures. Graph.Finalize clears the PlanCache, so a mutation
// invalidates them the way it invalidates compiled plans.
type labelSigsKey struct{}

// LabelSigsFor returns v's signatures, built once by newLabelSigs and
// cached in the view's PlanCache like its degree statistics. A graph with
// staged mutations is finalized first, so its signatures always describe
// the edges its accessors return. Backends call it when they are built,
// so that the first join does not pay for the scan.
func LabelSigsFor(v View) *LabelSigs {
	if g, ok := v.(*Graph); ok {
		g.requireFinal()
	}
	return cached(v, labelSigsKey{}, newLabelSigs)
}
