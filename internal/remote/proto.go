// Package remote is the distributed ParDis runtime: fragment servers
// (cmd/gfdfrag) mmap a spilled frag-N.gfds and serve its share of the
// incremental join over a length-prefixed binary protocol, and the
// coordinator dials each one as a RemoteFragment — a graph.View that
// parallel.MineFragments mixes freely with local mmap views.
//
// The RPC unit is one (fragment, parent part) batch: one extend call
// ships a worker's part of a parent table once (its columns framed
// exactly as snapshot sections — raw little-endian u32 runs) together
// with every child pattern of that parent in the level, and gets back
// one indexed share of ExtendRowsViews per child. No per-edge lookup ever
// crosses the wire; a per-edge View method on a RemoteFragment is served
// from a lazily fetched local replica of the fragment's snapshot, whose
// section payloads cross the wire flate-compressed (the cold-dial
// transfer — see msgSections).
//
// The wire is multiplexed: every frame carries a request tag, the client
// pipelines concurrent requests over one connection (a writer mutex plus
// a demultiplexing reader goroutine — see mux.go), and the server
// executes tagged requests concurrently per connection, so responses may
// complete out of order. Concurrent supersteps therefore overlap their
// round trips instead of queueing behind a per-connection lock.
//
// Failure semantics, in escalation order: every call carries a deadline;
// transport errors retry with capped exponential backoff + jitter against
// a freshly dialed connection; a fragment that exhausts its retries is
// declared dead and the coordinator fails over by re-attaching the
// worker's spilled frag-N.gfds locally (the spill file is the recovery
// unit), after which the superstep resumes with a local view and mining
// output is unchanged. Recovery is the membership path: a restarted
// server re-announces to the coordinator's registry (ServeFragment), and
// the balancer adopts it at the next superstep boundary after a
// fingerprint-validated handshake (balancer.go, RemoteFragment.Adopt).
//
// # Framing
//
// Every message is one frame:
//
//	offset 0  payload length uint32 (little-endian, < maxFrame)
//	offset 4  message type   uint32
//	offset 8  request tag    uint32 (echoed verbatim in the response)
//	offset 12 checksum       uint32 (FNV-1a over length, type, tag and payload)
//	offset 16 payload
//
// The tag is the multiplexing key: the client allocates a fresh tag per
// request and matches responses by it, so any number of requests can be
// in flight on one connection and complete in any order. A frame is
// written with a single Write call, so the fault-injection harness
// (FaultConn) drops, delays or corrupts whole messages. The checksum
// turns a corrupted payload into a detected transport error — the client
// closes the connection, redials and retries — rather than a silently
// wrong join.
//
// Payload fields are little-endian u32/u64 scalars, length-prefixed
// strings padded to 4 bytes, and length-prefixed u32 slices encoded with
// the snapshot section codec (store.WireU32s / store.CastU32s, zero-copy
// on both sides). Hosts that cannot use that codec (big-endian) are
// refused at Dial/Serve time, exactly as the snapshot format refuses
// them.
package remote

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/store"
)

// Message types. The numeric values are part of the protocol. Types 5
// and 6 carried the retired one-child extend and its share; the batch
// took new numbers instead of reusing theirs, so a peer still speaking
// them gets a clean msgError ("unknown message type"), never a misparse.
const (
	msgHello         uint32 = 1  // client -> server: handshake request (empty)
	msgHelloOK       uint32 = 2  // server -> client: fragment metadata + counts + edge-label section
	msgPing          uint32 = 3  // client -> server: heartbeat, echo payload
	msgPong          uint32 = 4  // server -> client: heartbeat echo
	msgSections      uint32 = 7  // client -> server: request the fragment's snapshot (u32 flags)
	msgSectionsOK    uint32 = 8  // server -> client: complete snapshot bytes (store format)
	msgError         uint32 = 9  // server -> client: application error (fatal, not retried)
	msgSectionsZ     uint32 = 10 // server -> client: snapshot with per-section flate compression
	msgAnnounce      uint32 = 11 // fragment server -> registry: membership announcement
	msgAnnounceOK    uint32 = 12 // registry -> fragment server: admitted; carries the new epoch
	msgExtendBatch   uint32 = 13 // client -> server: child patterns + one parent part
	msgExtendBatchOK uint32 = 14 // server -> client: one indexed share per child
)

// sectionsAcceptFlate is the msgSections request flag announcing the
// client decodes msgSectionsZ. A server always honours a flagless (or
// empty, pre-compression) request with raw msgSectionsOK bytes.
const sectionsAcceptFlate uint32 = 1

const (
	frameHeader = 16
	// maxFrame bounds a frame payload: a corrupted or adversarial length
	// field must not drive a giant allocation. Snapshot shipping is the
	// largest legitimate payload; 1 GiB is far above any test graph and
	// still a sane allocation bound.
	maxFrame = 1 << 30
)

// frameSum is the frame checksum: FNV-1a 32 over the length, type and
// tag words followed by the payload. Covering the header words matters:
// a corrupted type would otherwise parse as a perfectly framed message of
// the wrong kind, a corrupted length would desynchronise the stream, and
// a corrupted tag would deliver a valid response to the wrong in-flight
// request — all must surface as transport errors, not protocol confusion.
func frameSum(length, typ, tag uint32, payload []byte) uint32 {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], length)
	binary.LittleEndian.PutUint32(hdr[4:], typ)
	binary.LittleEndian.PutUint32(hdr[8:], tag)
	h := fnv.New32a()
	h.Write(hdr[:])
	h.Write(payload)
	return h.Sum32()
}

// writeFrame frames and writes one message with a single Write call (the
// fault harness counts messages, not bytes). Returns bytes written on the
// wire.
func writeFrame(w io.Writer, typ, tag uint32, payload []byte) (int, error) {
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("remote: frame payload %d exceeds limit", len(payload))
	}
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], typ)
	binary.LittleEndian.PutUint32(buf[8:], tag)
	binary.LittleEndian.PutUint32(buf[12:], frameSum(uint32(len(payload)), typ, tag, payload))
	copy(buf[frameHeader:], payload)
	n, err := w.Write(buf)
	return n, err
}

// readFrame reads and verifies one frame. Any failure — short read, bad
// length, checksum mismatch — is a transport-level error: the connection
// state is unknown and the caller must close it (and, on the client,
// retry against a fresh one).
func readFrame(r io.Reader) (typ, tag uint32, payload []byte, n int, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, 0, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	typ = binary.LittleEndian.Uint32(hdr[4:])
	tag = binary.LittleEndian.Uint32(hdr[8:])
	sum := binary.LittleEndian.Uint32(hdr[12:])
	if length > maxFrame {
		return 0, 0, nil, 0, fmt.Errorf("remote: frame length %d exceeds limit (corrupt header?)", length)
	}
	if payload, err = readPayload(r, int(length)); err != nil {
		return 0, 0, nil, 0, err
	}
	if got := frameSum(length, typ, tag, payload); got != sum {
		return 0, 0, nil, 0, fmt.Errorf("remote: frame checksum mismatch (%08x != %08x): corrupted frame", got, sum)
	}
	return typ, tag, payload, frameHeader + int(length), nil
}

// readChunk is the first buffer readPayload allocates: frames up to this
// size (almost every extend frame) are read with one exact allocation.
const readChunk = 64 << 10

// readPayload reads exactly n bytes. The buffer grows with the bytes that
// actually arrive, at most doubling per step, instead of being sized from
// the header's claim up front: a forged length word costs one readChunk
// plus at most twice what the peer really sent, never maxFrame.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- Payload encoding ---

// wbuf builds a payload. Strings are padded to 4 bytes so every scalar
// and slice field stays 4-aligned, keeping the receive-side slice casts
// zero-copy.
type wbuf struct{ b []byte }

func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
	for len(w.b)%4 != 0 {
		w.b = append(w.b, 0)
	}
}

// wU32s appends a length-prefixed u32 slice in section encoding.
func wU32s[T ~uint32](w *wbuf, s []T) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, store.WireU32s(s)...)
}

func wU64s(w *wbuf, s []uint64) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.u64(v)
	}
}

// rbuf decodes a payload with sticky error handling: after any failure
// every further read returns zero values and err() reports the first
// problem, so decoders read straight through without per-field checks.
type rbuf struct {
	b    []byte
	off  int
	fail error
}

func (r *rbuf) errf(format string, args ...any) {
	if r.fail == nil {
		r.fail = fmt.Errorf(format, args...)
	}
}

func (r *rbuf) err() error {
	if r.fail != nil {
		return r.fail
	}
	if r.off != len(r.b) {
		return fmt.Errorf("remote: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// left returns the unread payload length.
func (r *rbuf) left() int { return len(r.b) - r.off }

func (r *rbuf) take(n int) []byte {
	if r.fail != nil || r.off+n > len(r.b) || n < 0 {
		r.errf("remote: truncated payload (want %d bytes at %d of %d)", n, r.off, len(r.b))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *rbuf) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *rbuf) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *rbuf) str() string {
	n := int(r.u32())
	b := r.take(n)
	pad := (4 - n%4) % 4
	r.take(pad)
	return string(b)
}

// rU32s reads a length-prefixed u32 slice, aliasing the payload where
// alignment allows.
func rU32s[T ~uint32](r *rbuf) []T {
	n := int(r.u32())
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	s, err := store.CastU32s[T](b)
	if err != nil {
		r.errf("remote: %v", err)
		return nil
	}
	return s
}

// rU64s reads a length-prefixed u64 slice. A count the remaining payload
// cannot hold is refused before anything is allocated.
func rU64s(r *rbuf) []uint64 {
	n := int(r.u32())
	if r.fail == nil && n > r.left()/8 {
		r.errf("remote: %d u64 values claimed, %d payload bytes left", n, r.left())
	}
	if r.fail != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

// --- Messages ---

// helloInfo is the server's handshake payload: the fragment's identity
// and the counts + edge-label-count section the coordinator needs to
// serve NumEdges/EdgeLabelCount locally, plus a node-store fingerprint so
// a coordinator never joins against a fragment of a different graph.
type helloInfo struct {
	Worker         int
	NodeLo, NodeHi graph.NodeID
	NumNodes       int
	NumEdges       int
	NumLabels      int
	NumAttrs       int
	NumValues      int
	Fingerprint    uint64
	EdgeLabelCount []uint64
}

func encodeHelloOK(h helloInfo) []byte {
	var w wbuf
	w.u32(uint32(h.Worker))
	w.u32(uint32(h.NodeLo))
	w.u32(uint32(h.NodeHi))
	w.u64(uint64(h.NumNodes))
	w.u64(uint64(h.NumEdges))
	w.u64(uint64(h.NumLabels))
	w.u64(uint64(h.NumAttrs))
	w.u64(uint64(h.NumValues))
	w.u64(h.Fingerprint)
	wU64s(&w, h.EdgeLabelCount)
	return w.b
}

func decodeHelloOK(b []byte) (helloInfo, error) {
	r := rbuf{b: b}
	h := helloInfo{
		Worker: int(r.u32()),
		NodeLo: graph.NodeID(r.u32()),
		NodeHi: graph.NodeID(r.u32()),
	}
	h.NumNodes = int(r.u64())
	h.NumEdges = int(r.u64())
	h.NumLabels = int(r.u64())
	h.NumAttrs = int(r.u64())
	h.NumValues = int(r.u64())
	h.Fingerprint = r.u64()
	h.EdgeLabelCount = rU64s(&r)
	return h, r.err()
}

// AnnounceInfo is a fragment server's membership announcement: which
// worker slot it serves, where it listens, and enough identity (node
// range, edge count, node-store fingerprint) for the registry to refuse
// a server holding the wrong fragment or a different graph before it
// ever enters the cluster map. Epoch is the announcer's last observed
// registry epoch — 0 for a fresh server; a claim beyond the registry's
// current epoch is refused as stale (a different registry incarnation).
type AnnounceInfo struct {
	Worker         int
	Addr           string
	NodeLo, NodeHi graph.NodeID
	NumEdges       int
	Fingerprint    uint64
	Epoch          uint64
}

func encodeAnnounce(a AnnounceInfo) []byte {
	var w wbuf
	w.u32(uint32(a.Worker))
	w.u32(uint32(a.NodeLo))
	w.u32(uint32(a.NodeHi))
	w.u64(uint64(a.NumEdges))
	w.u64(a.Fingerprint)
	w.u64(a.Epoch)
	w.str(a.Addr)
	return w.b
}

func decodeAnnounce(b []byte) (AnnounceInfo, error) {
	r := rbuf{b: b}
	a := AnnounceInfo{
		Worker: int(r.u32()),
		NodeLo: graph.NodeID(r.u32()),
		NodeHi: graph.NodeID(r.u32()),
	}
	a.NumEdges = int(r.u64())
	a.Fingerprint = r.u64()
	a.Epoch = r.u64()
	a.Addr = r.str()
	return a, r.err()
}

func encodeAnnounceOK(epoch uint64) []byte {
	var w wbuf
	w.u64(epoch)
	return w.b
}

func decodeAnnounceOK(b []byte) (uint64, error) {
	r := rbuf{b: b}
	epoch := r.u64()
	return epoch, r.err()
}

// Fingerprint hashes a view's node store by content: node labels plus all
// three symbol pools. The coordinator's base view and every fragment
// (local or remote) must agree on it — it is the wire-level analogue of
// Attach's sameNodeStore check, computed once per endpoint.
func Fingerprint(v graph.View) uint64 {
	h := fnv.New64a()
	var num [8]byte
	for n := 0; n < v.NumNodes(); n++ {
		binary.LittleEndian.PutUint32(num[:4], uint32(v.NodeLabelID(graph.NodeID(n))))
		h.Write(num[:4])
	}
	writePool := func(n int, name func(int) string) {
		binary.LittleEndian.PutUint64(num[:], uint64(n))
		h.Write(num[:])
		for i := 0; i < n; i++ {
			s := name(i)
			binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
			h.Write(num[:])
			io.WriteString(h, s)
		}
	}
	writePool(v.NumLabels(), func(i int) string { return v.LabelName(graph.LabelID(i)) })
	writePool(v.NumAttrs(), func(i int) string { return v.AttrName(graph.AttrID(i)) })
	writePool(v.NumValues(), func(i int) string { return v.ValueName(graph.ValueID(i)) })
	return h.Sum64()
}

// encodeExtend frames one batch request: every child pattern of one
// parent, then the worker's part of the parent table once (all columns —
// the new-node case needs every bound variable for the injectivity
// check). The parent pattern is not shipped: the server re-derives it as
// the first child minus its last edge (and last variable), which is all
// ExtendIndexedBatch consults. Layout:
//
//	u32 child count
//	per child: u32 arity, u32 pivot, arity labels, u32 edge count,
//	           per edge u32 src, u32 dst, label
//	u32 parent arity, u32 rows, then each parent column as rows u32s
func encodeExtend(t *match.Table, children []*pattern.Pattern) []byte {
	size := 12 + 4*t.NumVars()*t.Len()
	for _, c := range children {
		size += 12 + 12*len(c.Edges)
		for _, l := range c.NodeLabels {
			size += 8 + len(l)
		}
		for _, e := range c.Edges {
			size += 4 + len(e.Label)
		}
	}
	w := wbuf{b: make([]byte, 0, size)}
	w.u32(uint32(len(children)))
	for _, c := range children {
		w.u32(uint32(c.N()))
		w.u32(uint32(c.Pivot))
		for _, l := range c.NodeLabels {
			w.str(l)
		}
		w.u32(uint32(len(c.Edges)))
		for _, e := range c.Edges {
			w.u32(uint32(e.Src))
			w.u32(uint32(e.Dst))
			w.str(e.Label)
		}
	}
	w.u32(uint32(t.NumVars()))
	w.u32(uint32(t.Len()))
	for v := 0; v < t.NumVars(); v++ {
		w.b = append(w.b, store.WireU32s(t.Col(v))...)
	}
	return w.b
}

// Smallest encodings, used to bound counts by the remaining payload
// before anything is allocated for them.
const (
	minLabelBytes = 4                                    // empty string
	minEdgeBytes  = 8 + minLabelBytes                    // src, dst, label
	minChildBytes = 8 + minLabelBytes + 4 + minEdgeBytes // arity, pivot, one label, edge count, one edge
	minShareBytes = 8                                    // empty rows, no new column
)

// decodeChild reads one child pattern of a batch request.
func decodeChild(r *rbuf) (*pattern.Pattern, error) {
	n := int(r.u32())
	pivot := int(r.u32())
	if r.fail == nil && (n <= 0 || n > 64 || n > r.left()/minLabelBytes || pivot < 0 || pivot >= n) {
		r.errf("remote: implausible pattern (arity %d, pivot %d)", n, pivot)
	}
	if r.fail != nil {
		return nil, r.fail
	}
	child := &pattern.Pattern{Pivot: pivot, NodeLabels: make([]string, n)}
	for i := range child.NodeLabels {
		child.NodeLabels[i] = r.str()
	}
	ne := int(r.u32())
	if r.fail == nil && (ne <= 0 || ne > 4096 || ne > r.left()/minEdgeBytes) {
		r.errf("remote: implausible edge count %d", ne)
	}
	if r.fail != nil {
		return nil, r.fail
	}
	child.Edges = make([]pattern.Edge, ne)
	for i := range child.Edges {
		child.Edges[i].Src = int(r.u32())
		child.Edges[i].Dst = int(r.u32())
		child.Edges[i].Label = r.str()
	}
	if r.fail != nil {
		return nil, r.fail
	}
	for _, e := range child.Edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("remote: edge endpoint out of range")
		}
	}
	return child, nil
}

// decodeExtend rebuilds a batch request's children and parent table.
// Every child must extend the same parent arity by one edge, and a
// new-node child's last edge must join the new variable to a bound one —
// the shapes ExtendIndexedBatch accepts. The returned table aliases the
// payload where alignment allows; it lives only for the duration of the
// request.
func decodeExtend(b []byte) (*match.Table, []*pattern.Pattern, error) {
	r := rbuf{b: b}
	nc := int(r.u32())
	if r.fail == nil && (nc <= 0 || nc > r.left()/minChildBytes) {
		r.errf("remote: implausible child count %d for %d payload bytes", nc, len(b))
	}
	if r.fail != nil {
		return nil, nil, r.fail
	}
	children := make([]*pattern.Pattern, nc)
	for i := range children {
		c, err := decodeChild(&r)
		if err != nil {
			return nil, nil, err
		}
		children[i] = c
	}
	nv := int(r.u32())
	rows := int(r.u32())
	if r.fail != nil {
		return nil, nil, r.fail
	}
	ne := len(children[0].Edges)
	for _, c := range children {
		n := c.N()
		if len(c.Edges) != ne || nv < n-1 || nv > n {
			return nil, nil, fmt.Errorf("remote: malformed extend batch (child arity %d, %d edges; parent arity %d, %d edges)", n, len(c.Edges), nv, ne-1)
		}
		if e := c.LastEdge(); n > nv && (e.Src == nv) == (e.Dst == nv) {
			return nil, nil, fmt.Errorf("remote: new-node child's last edge %d->%d does not join variable %d", e.Src, e.Dst, nv)
		}
	}
	cols := make([][]graph.NodeID, nv)
	for v := range cols {
		raw := r.take(4 * rows)
		if r.fail != nil {
			return nil, nil, r.fail
		}
		col, err := store.CastU32s[graph.NodeID](raw)
		if err != nil {
			return nil, nil, err
		}
		cols[v] = col
	}
	if err := r.err(); err != nil {
		return nil, nil, err
	}
	// Re-derive the parent: a child minus the last edge, minus the new
	// variable if the child introduced one. ExtendIndexedBatch consults the
	// parent only through its arity.
	parent := &pattern.Pattern{
		NodeLabels: children[0].NodeLabels[:nv],
		Edges:      children[0].Edges[:ne-1],
		Pivot:      children[0].Pivot,
	}
	t, err := match.FromCols(parent, cols)
	if err != nil {
		return nil, nil, err
	}
	return t, children, nil
}

// encodeExtendOK frames a batch response: the share count, then per
// share its parent rows and — for a new-node child — a flag and the new
// column (flag 0 and no column for a closing edge).
func encodeExtendOK(exts []match.IndexedExt) []byte {
	size := 4
	for _, ext := range exts {
		size += 12 + 4*len(ext.ParentRows) + 4*len(ext.NewCol)
	}
	w := wbuf{b: make([]byte, 0, size)}
	w.u32(uint32(len(exts)))
	for _, ext := range exts {
		wU32s(&w, ext.ParentRows)
		if ext.NewCol == nil {
			w.u32(0)
		} else {
			w.u32(1)
			wU32s(&w, ext.NewCol)
		}
	}
	return w.b
}

func decodeExtendOK(b []byte) ([]match.IndexedExt, error) {
	r := rbuf{b: b}
	n := int(r.u32())
	if r.fail == nil && (n < 0 || n > r.left()/minShareBytes) {
		r.errf("remote: %d shares claimed, %d payload bytes left", n, r.left())
	}
	if r.fail != nil {
		return nil, r.fail
	}
	exts := make([]match.IndexedExt, n)
	for i := range exts {
		ext := &exts[i]
		ext.ParentRows = rU32s[uint32](&r)
		if r.u32() != 0 {
			ext.NewCol = rU32s[graph.NodeID](&r)
			if r.fail == nil && len(ext.NewCol) != len(ext.ParentRows) {
				r.errf("remote: extension share columns disagree: %d rows, %d bindings", len(ext.ParentRows), len(ext.NewCol))
			}
			if ext.NewCol == nil {
				ext.NewCol = []graph.NodeID{}
			}
		}
		if r.fail != nil {
			return nil, r.fail
		}
	}
	return exts, r.err()
}

// --- Compressed snapshot transfer (msgSectionsZ) ---

// encodeSectionsZ compresses a serialised snapshot per section for the
// cold-dial transfer. The snapshot format already frames its payloads
// (store.SectionSpans), so compression never looks inside a section and
// the receiver reassembles the byte-identical stream — store stays
// oblivious. Layout:
//
//	u64 raw snapshot length
//	u32 prefix length (header + section table + alignment pad, raw)
//	prefix bytes
//	per section, in table order: u32 compressed length + flate stream
//	  (length 0 marks an empty section)
//
// Inter-section padding is zero by the writer's contract, so it is not
// shipped: the receiver decompresses into a zeroed buffer.
func encodeSectionsZ(snap []byte) ([]byte, error) {
	prefix, spans, err := store.SectionSpans(snap)
	if err != nil {
		return nil, err
	}
	var w wbuf
	w.u64(uint64(len(snap)))
	w.u32(uint32(prefix))
	w.b = append(w.b, snap[:prefix]...)
	var comp bytes.Buffer
	var fw *flate.Writer
	for _, s := range spans {
		if s.Len == 0 {
			w.u32(0)
			continue
		}
		comp.Reset()
		if fw == nil {
			if fw, err = flate.NewWriter(&comp, flate.BestSpeed); err != nil {
				return nil, err
			}
		} else {
			fw.Reset(&comp)
		}
		if _, err := fw.Write(snap[s.Off : s.Off+s.Len]); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		w.u32(uint32(comp.Len()))
		w.b = append(w.b, comp.Bytes()...)
	}
	return w.b, nil
}

// maxDeflateRatio bounds how far deflate expands: one compressed byte
// decodes to at most 1032 bytes (258-byte matches coded in two bits).
const maxDeflateRatio = 1032

// decodeSectionsZ reverses encodeSectionsZ, reconstructing the exact
// byte stream store.Write produced: prefix copied raw, each section
// decompressed into its span, padding left zero. The snapshot length is
// checked before it is allocated: it must be the length the received
// section table lays out, and within what the compressed bytes present
// can expand to. The prefix is then re-validated with SectionSpans so a
// corrupt table surfaces here as a transport error instead of a
// misdecoded snapshot.
func decodeSectionsZ(b []byte) ([]byte, error) {
	r := rbuf{b: b}
	rawLen := r.u64()
	prefixLen := int64(r.u32())
	prefix := r.take(int(prefixLen))
	if r.fail != nil {
		return nil, r.fail
	}
	laidOut, err := store.StreamLen(prefix)
	if err != nil {
		return nil, err
	}
	if rawLen != uint64(laidOut) {
		return nil, fmt.Errorf("remote: snapshot length %d disagrees with its section table (%d)", rawLen, laidOut)
	}
	if rawLen > maxFrame || laidOut-prefixLen > maxDeflateRatio*int64(r.left()) {
		return nil, fmt.Errorf("remote: implausible snapshot length %d for %d compressed bytes", rawLen, r.left())
	}
	out := make([]byte, rawLen)
	copy(out, prefix)
	wantPrefix, spans, err := store.SectionSpans(out)
	if err != nil {
		return nil, err
	}
	if wantPrefix != prefixLen {
		return nil, fmt.Errorf("remote: snapshot prefix length %d disagrees with its section table (%d)", prefixLen, wantPrefix)
	}
	var fr io.Reader // one flate reader, reset per section; it holds no resource to close
	for _, s := range spans {
		n := int(r.u32())
		comp := r.take(n)
		if r.fail != nil {
			return nil, r.fail
		}
		if s.Len == 0 {
			if n != 0 {
				return nil, fmt.Errorf("remote: %d compressed bytes for empty section %d", n, s.ID)
			}
			continue
		}
		if fr == nil {
			fr = flate.NewReader(bytes.NewReader(comp))
		} else if err := fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
			return nil, err
		}
		dst := out[s.Off : s.Off+s.Len]
		if _, err := io.ReadFull(fr, dst); err != nil {
			return nil, fmt.Errorf("remote: section %d decompress: %v", s.ID, err)
		}
		var overrun [1]byte
		if m, _ := fr.Read(overrun[:]); m != 0 {
			return nil, fmt.Errorf("remote: section %d decompresses past its %d-byte span", s.ID, s.Len)
		}
	}
	if err := r.err(); err != nil {
		return nil, err
	}
	return out, nil
}
