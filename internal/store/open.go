package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// maxCount bounds every count declared by a snapshot header (nodes, edges,
// labels, attrs, values). Together with int64 length arithmetic in the
// section casts (int is 32-bit on some supported hosts, so count×size
// must not wrap) it keeps derived sizes well-defined; real counts are
// additionally cross-checked against actual section lengths, so the
// header can never cause an allocation or slice beyond the bytes that
// exist.
const maxCount = 1 << 30

// Open maps the snapshot at path and returns a zero-copy view of it. On
// platforms with mmap the file is mapped read-only and every array of the
// returned MappedGraph aliases the mapping; elsewhere (and for files too
// small to map) the file is read into one aligned buffer and aliased the
// same way. The caller owns the MappedGraph and must Close it when done.
func Open(path string) (*MappedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if mmapSupported && st.Size() >= headerSize {
		data, unmap, merr := mapFile(f, st.Size())
		if merr == nil {
			m, err := OpenBytes(data)
			if err != nil {
				unmap()
				return nil, fmt.Errorf("store: open %s: %w", path, err)
			}
			m.unmap = unmap
			return m, nil
		}
	}
	data, err := readAligned(f, st.Size())
	if err != nil {
		return nil, err
	}
	m, err := OpenBytes(data)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	return m, nil
}

// readAligned reads the whole file into an 8-byte-aligned buffer so the
// zero-copy slice casts of the decoder hold without mmap.
func readAligned(f *os.File, size int64) ([]byte, error) {
	if size < 0 || size > int64(maxCount)*64 {
		return nil, fmt.Errorf("store: implausible snapshot size %d", size)
	}
	buf := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), size)
	if len(buf) == 0 {
		data = []byte{}
	}
	n, err := f.ReadAt(data, 0)
	if int64(n) != size {
		return nil, fmt.Errorf("store: short read: %d of %d bytes: %v", n, size, err)
	}
	return data, nil
}

// OpenBytes decodes a snapshot held in memory, validating every structural
// invariant (section bounds, array lengths, offset monotonicity, ID
// ranges) before aliasing anything. It never panics on corrupted input and
// never allocates more than O(section table + numAttrs) beyond the buffer
// it is handed: every count is checked against the bytes that actually
// exist. The returned MappedGraph aliases data; the caller must keep it
// immutable and live.
func OpenBytes(data []byte) (*MappedGraph, error) {
	if !isLE {
		return nil, fmt.Errorf("store: snapshot format is little-endian; unsupported on this host")
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("store: truncated header: %d bytes", len(data))
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 != 0 {
		// The slice casts below need 8-byte base alignment; mmap and
		// readAligned guarantee it, an arbitrary caller (the fuzzer) may
		// not. Realign with one copy.
		buf := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(data))
		copy(aligned, data)
		data = aligned
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	if v := uint16(data[6]) | uint16(data[7])<<8; v != Version {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", v, Version)
	}
	nsec := int(getU32(data, 8))
	if nsec > maxSections {
		return nil, fmt.Errorf("store: implausible section count %d", nsec)
	}
	tableEnd := int64(headerSize) + int64(nsec)*sectionEntry
	if tableEnd > int64(len(data)) {
		return nil, fmt.Errorf("store: truncated section table")
	}
	secs := make(map[uint32][]byte, nsec)
	for i := 0; i < nsec; i++ {
		base := headerSize + i*sectionEntry
		id := getU32(data, base)
		off := getU64(data, base+8)
		ln := getU64(data, base+16)
		if off%8 != 0 || off < uint64(tableEnd) || off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, fmt.Errorf("store: section %d out of bounds (off=%d len=%d file=%d)", id, off, ln, len(data))
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("store: duplicate section %d", id)
		}
		secs[id] = data[off : off+ln : off+ln]
	}

	d := &decoder{secs: secs}
	meta, err := d.u64s(secMeta, 5)
	if err != nil {
		return nil, err
	}
	for i, c := range meta {
		if c > maxCount {
			return nil, fmt.Errorf("store: meta count %d implausible: %d", i, c)
		}
	}
	m := &MappedGraph{
		data:      data,
		numNodes:  int(meta[0]),
		numEdges:  int(meta[1]),
		numLabels: int(meta[2]),
		numAttrs:  int(meta[3]),
		numValues: int(meta[4]),
	}

	if m.nodeLabels, err = labelIDs(d, secNodeLabels, m.numNodes); err != nil {
		return nil, err
	}
	if err := idsBelow("node labels", m.nodeLabels, uint32(m.numLabels)); err != nil {
		return nil, err
	}

	decodeCSR := func(dir string, to, runNode, runLabel, runOff uint32) (t []graph.NodeID, rn []uint32, rl []graph.LabelID, ro []uint32, err error) {
		if rn, err = d.u32s(runNode, m.numNodes+1); err != nil {
			return
		}
		numRuns, merr := monotoneLast(dir+" run index", rn, maxCount)
		if merr != nil {
			err = merr
			return
		}
		if rl, err = labelIDs(d, runLabel, numRuns); err != nil {
			return
		}
		if err = idsBelow(dir+" run labels", rl, uint32(m.numLabels)); err != nil {
			return
		}
		if ro, err = d.u32s(runOff, numRuns+1); err != nil {
			return
		}
		if last, merr := monotoneLast(dir+" run offsets", ro, m.numEdges); merr != nil {
			err = merr
			return
		} else if last != m.numEdges {
			err = fmt.Errorf("store: %s run offsets cover %d of %d edges", dir, last, m.numEdges)
			return
		}
		if t, err = nodeIDs(d, to, m.numEdges); err != nil {
			return
		}
		if err = idsBelow(dir+" adjacency", t, uint32(m.numNodes)); err != nil {
			return
		}
		// Sort invariants the readers binary-search by: run labels strictly
		// ascending within each node's window, neighbour IDs strictly
		// ascending within each run. A transposed pair would make
		// FindRun/ContainsNode silently miss entries, so it is a decode
		// error like any other corruption.
		for v := 0; v < m.numNodes; v++ {
			for r := int(rn[v]) + 1; r < int(rn[v+1]); r++ {
				if rl[r] <= rl[r-1] {
					err = fmt.Errorf("store: %s run labels of node %d not ascending", dir, v)
					return
				}
			}
		}
		for r := 0; r < numRuns; r++ {
			end := int(ro[r+1])
			for i := int(ro[r]) + 1; i < end; i++ {
				if t[i] <= t[i-1] {
					err = fmt.Errorf("store: %s run %d adjacency not ascending", dir, r)
					return
				}
			}
		}
		return
	}
	if m.outTo, m.outRunNode, m.outRunLabel, m.outRunOff, err = decodeCSR("out", secOutTo, secOutRunNode, secOutRunLabel, secOutRunOff); err != nil {
		return nil, err
	}
	if m.inTo, m.inRunNode, m.inRunLabel, m.inRunOff, err = decodeCSR("in", secInTo, secInRunNode, secInRunLabel, secInRunOff); err != nil {
		return nil, err
	}
	m.bounds.SrcLo, m.bounds.SrcHi = runSpan(m.outRunNode)
	m.bounds.DstLo, m.bounds.DstHi = runSpan(m.inRunNode)

	if m.byLabelOff, err = d.u32s(secByLabelOff, m.numLabels+1); err != nil {
		return nil, err
	}
	nByLabel, err := monotoneLast("label index offsets", m.byLabelOff, maxCount)
	if err != nil {
		return nil, err
	}
	if m.byLabelNodes, err = nodeIDs(d, secByLabelNodes, nByLabel); err != nil {
		return nil, err
	}
	if err := idsBelow("label index", m.byLabelNodes, uint32(m.numNodes)); err != nil {
		return nil, err
	}
	for l := 0; l < m.numLabels; l++ {
		seg := m.byLabelNodes[m.byLabelOff[l]:m.byLabelOff[l+1]]
		for i := 1; i < len(seg); i++ {
			if seg[i] <= seg[i-1] {
				return nil, fmt.Errorf("store: label %d node list not ascending", l)
			}
		}
	}
	if m.edgeLabelCount, err = d.u64s(secEdgeLabelCount, m.numLabels); err != nil {
		return nil, err
	}

	strPool := func(what string, offSec, blobSec uint32, n int) ([]uint32, []byte, error) {
		offs, err := d.u32s(offSec, n+1)
		if err != nil {
			return nil, nil, err
		}
		blob := secs[blobSec] // may be absent: zero-length pool
		if last, err := monotoneLast(what+" offsets", offs, len(blob)); err != nil {
			return nil, nil, err
		} else if last != len(blob) {
			return nil, nil, fmt.Errorf("store: %s offsets cover %d of %d blob bytes", what, last, len(blob))
		}
		return offs, blob, nil
	}
	if m.labelOff, m.labelBlob, err = strPool("label names", secLabelNameOff, secLabelNameBlob, m.numLabels); err != nil {
		return nil, err
	}
	if m.attrOff, m.attrBlob, err = strPool("attr names", secAttrNameOff, secAttrNameBlob, m.numAttrs); err != nil {
		return nil, err
	}
	if m.valOff, m.valBlob, err = strPool("value names", secValueNameOff, secValueNameBlob, m.numValues); err != nil {
		return nil, err
	}

	if err := m.decodeAttrColumns(d); err != nil {
		return nil, err
	}

	if fb, ok := secs[secFragment]; ok {
		if len(fb) != 16 {
			return nil, fmt.Errorf("store: fragment section has %d bytes, want 16", len(fb))
		}
		fi := FragmentInfo{
			Worker: int(getU32(fb, 0)),
			NodeLo: graph.NodeID(getU32(fb, 4)),
			NodeHi: graph.NodeID(getU32(fb, 8)),
		}
		if fi.NodeLo > fi.NodeHi || int64(fi.NodeHi) > int64(m.numNodes) {
			return nil, fmt.Errorf("store: fragment node range [%d,%d) out of bounds", fi.NodeLo, fi.NodeHi)
		}
		m.frag = &fi
	}
	if db, ok := secs[secDegree]; ok {
		ds, err := decodeDegree(db, m.numLabels, m.edgeLabelCount, uint64(m.numEdges))
		if err != nil {
			return nil, err
		}
		m.degrees = ds
	}
	return m, nil
}

// decodeDegree unpacks the secDegree payload (layout in format.go) into
// heap DegreeStats, restoring the omitted Edges fields from the per-label
// edge counts. The section is copy-decoded rather than aliased: it is
// tiny (160 bytes per label) and the struct form keeps the planner free
// of offset arithmetic.
func decodeDegree(b []byte, numLabels int, edgeLabelCount []uint64, numEdges uint64) (*graph.DegreeStats, error) {
	m := numLabels + 1
	if len(b) != degreeSectionSize(numLabels) {
		return nil, fmt.Errorf("store: degree section has %d bytes, want %d", len(b), degreeSectionSize(numLabels))
	}
	ds := &graph.DegreeStats{
		Out: make([]graph.LabelDegree, numLabels),
		In:  make([]graph.LabelDegree, numLabels),
	}
	for d := 0; d < 2; d++ {
		carrierBase := d * 8 * m
		sumSqBase := 16*m + d*8*m
		histBase := 32*m + d*4*graph.DegreeBuckets*m
		for i := 0; i < m; i++ {
			var ld graph.LabelDegree
			ld.Carriers = getU32(b, carrierBase+4*i)
			ld.Max = getU32(b, carrierBase+4*m+4*i)
			ld.SumSq = getU64(b, sumSqBase+8*i)
			for h := 0; h < graph.DegreeBuckets; h++ {
				ld.Hist[h] = getU32(b, histBase+(i*graph.DegreeBuckets+h)*4)
			}
			if i < numLabels {
				ld.Edges = edgeLabelCount[i]
			} else {
				ld.Edges = numEdges
			}
			switch {
			case i < numLabels && d == 0:
				ds.Out[i] = ld
			case i < numLabels:
				ds.In[i] = ld
			case d == 0:
				ds.OutAll = ld
			default:
				ds.InAll = ld
			}
		}
	}
	return ds, nil
}

// decodeAttrColumns validates and aliases the attribute plane: one kind
// tag per attribute, dense columns consumed from the dense pool in AttrID
// order, sparse (node, value) pairs located by the shared offset table.
func (m *MappedGraph) decodeAttrColumns(d *decoder) error {
	kinds, err := d.u32s(secAttrKind, m.numAttrs)
	if err != nil {
		return err
	}
	nDense := 0
	for a, k := range kinds {
		switch k {
		case attrEmpty, attrSparse:
		case attrDense:
			nDense++
		default:
			return fmt.Errorf("store: attr %d: unknown column kind %d", a, k)
		}
	}
	// The dense-pool element count is a product of two header counts: do
	// the math in int64 and require it to fit int, or a forged pair could
	// wrap the count on 32-bit hosts.
	nDensePool := int64(nDense) * int64(m.numNodes)
	if nDensePool != int64(int(nDensePool)) {
		return fmt.Errorf("store: dense attribute pool of %d entries exceeds platform bounds", nDensePool)
	}
	densePool, err := valueIDs(d, secAttrDense, int(nDensePool))
	if err != nil {
		return err
	}
	for _, v := range densePool {
		if v != graph.NoValue && uint32(v) >= uint32(m.numValues) {
			return fmt.Errorf("store: dense column value %d out of range (%d values)", v, m.numValues)
		}
	}
	sparseOff, err := d.u32s(secAttrSparseOff, m.numAttrs+1)
	if err != nil {
		return err
	}
	nSparse, err := monotoneLast("sparse attr offsets", sparseOff, maxCount)
	if err != nil {
		return err
	}
	sparseNodes, err := nodeIDs(d, secAttrSparseNode, nSparse)
	if err != nil {
		return err
	}
	sparseVals, err := valueIDs(d, secAttrSparseVal, nSparse)
	if err != nil {
		return err
	}
	for _, v := range sparseVals {
		if uint32(v) >= uint32(m.numValues) {
			return fmt.Errorf("store: sparse column value %d out of range (%d values)", v, m.numValues)
		}
	}

	m.cols = make([]graph.AttrColumn, m.numAttrs)
	di := 0
	for a, k := range kinds {
		lo, hi := int(sparseOff[a]), int(sparseOff[a+1])
		switch k {
		case attrDense:
			if lo != hi {
				return fmt.Errorf("store: attr %d: dense column with sparse entries", a)
			}
			m.cols[a] = graph.DenseColumn(densePool[di*m.numNodes : (di+1)*m.numNodes])
			di++
		case attrSparse:
			if lo == hi {
				return fmt.Errorf("store: attr %d: sparse column with no entries", a)
			}
			nodes := sparseNodes[lo:hi]
			for i := 1; i < len(nodes); i++ {
				if nodes[i] <= nodes[i-1] {
					return fmt.Errorf("store: attr %d: sparse nodes not ascending", a)
				}
			}
			if uint32(nodes[len(nodes)-1]) >= uint32(m.numNodes) {
				return fmt.Errorf("store: attr %d: sparse node out of range", a)
			}
			m.cols[a] = graph.SparseColumn(nodes, sparseVals[lo:hi])
		default: // attrEmpty
			if lo != hi {
				return fmt.Errorf("store: attr %d: empty column with sparse entries", a)
			}
		}
	}
	return nil
}

// decoder resolves and casts sections with exact length checks.
type decoder struct {
	secs map[uint32][]byte
}

// raw resolves a section and checks its exact byte length. want is int64:
// callers compute it as count×elemSize, and on 32-bit hosts that product
// can exceed int — the comparison must not wrap, or a forged count would
// match a short section and the cast below would slice past it.
func (d *decoder) raw(id uint32, want int64) ([]byte, error) {
	b, ok := d.secs[id]
	if !ok {
		return nil, fmt.Errorf("store: missing section %d", id)
	}
	if int64(len(b)) != want {
		return nil, fmt.Errorf("store: section %d has %d bytes, want %d", id, len(b), want)
	}
	return b, nil
}

// cast32 reinterprets a validated section as a slice of a 4-byte type.
func cast32[T ~uint32](d *decoder, id uint32, count int) ([]T, error) {
	b, err := d.raw(id, 4*int64(count))
	if err != nil || count == 0 {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), count), nil
}

func (d *decoder) u32s(id uint32, count int) ([]uint32, error) { return cast32[uint32](d, id, count) }

func nodeIDs(d *decoder, id uint32, count int) ([]graph.NodeID, error) {
	return cast32[graph.NodeID](d, id, count)
}

func labelIDs(d *decoder, id uint32, count int) ([]graph.LabelID, error) {
	return cast32[graph.LabelID](d, id, count)
}

func valueIDs(d *decoder, id uint32, count int) ([]graph.ValueID, error) {
	return cast32[graph.ValueID](d, id, count)
}

func (d *decoder) u64s(id uint32, count int) ([]uint64, error) {
	b, err := d.raw(id, 8*int64(count))
	if err != nil || count == 0 {
		return nil, err
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), count), nil
}

// monotoneLast checks that offs is non-decreasing, starts at 0, and that
// its final entry is at most max; it returns that final entry.
func monotoneLast(what string, offs []uint32, max int) (int, error) {
	if len(offs) == 0 {
		return 0, nil
	}
	if offs[0] != 0 {
		return 0, fmt.Errorf("store: %s do not start at 0", what)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return 0, fmt.Errorf("store: %s not monotone at %d", what, i)
		}
	}
	last := offs[len(offs)-1]
	if int64(last) > int64(max) {
		return 0, fmt.Errorf("store: %s end %d exceeds bound %d", what, last, max)
	}
	return int(last), nil
}

// idsBelow checks every element of a 4-byte-ID slice is < bound.
func idsBelow[T ~uint32](what string, ids []T, bound uint32) error {
	for _, v := range ids {
		if uint32(v) >= bound {
			return fmt.Errorf("store: %s: id %d out of range (bound %d)", what, v, bound)
		}
	}
	return nil
}

func getU32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

func getU64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
