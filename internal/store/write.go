package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// Source is what the encoder needs from a graph: the full View surface
// plus the flat arrays behind it. *graph.Graph, *graph.SubCSR and
// *MappedGraph all satisfy it, so a heap graph, a fragment, and a
// previously opened snapshot serialise through the same path.
type Source interface {
	graph.View
	FlatCSR() graph.FlatCSR
	NodeLabels() []graph.LabelID
}

// FragmentInfo is the ParDis fragment metadata optionally carried by a
// snapshot: which worker the fragment belongs to and its owned node range
// [NodeLo, NodeHi). A whole-graph snapshot carries none.
type FragmentInfo struct {
	Worker         int
	NodeLo, NodeHi graph.NodeID
}

// isLE reports whether this host is little-endian. The format is fixed
// little-endian; rather than carrying a byte-swapping second code path
// that no supported platform exercises, the writer and reader refuse
// big-endian hosts.
var isLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// section is one pending section: its id and payload chunks (chunked so
// e.g. dense attribute columns stream out without concatenation copies).
type section struct {
	id     uint32
	chunks [][]byte
}

func (s *section) size() int64 {
	var n int64
	for _, c := range s.chunks {
		n += int64(len(c))
	}
	return n
}

// u32bytes aliases a slice of any 4-byte integer type as raw bytes
// (little-endian hosts only — the writer refuses others up front).
func u32bytes[T ~uint32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func u64bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

// Write serialises src as a snapshot. Fragment metadata carried by the
// source (a re-serialised fragment *MappedGraph) is preserved, so
// copying or compacting a fragment snapshot through Write round-trips it
// losslessly; use WriteFragment to set or replace the metadata.
func Write(w io.Writer, src Source) error {
	var fi *FragmentInfo
	if fr, ok := src.(interface{ Fragment() (FragmentInfo, bool) }); ok {
		if info, has := fr.Fragment(); has {
			fi = &info
		}
	}
	return write(w, src, fi)
}

// WriteFragment serialises src with ParDis fragment metadata attached.
// The snapshot is self-contained: it carries the full node store and
// symbol pools alongside the fragment's CSR, so a worker can open it with
// no other state.
func WriteFragment(w io.Writer, src Source, fi FragmentInfo) error {
	return write(w, src, &fi)
}

// WriteFile writes a whole-graph snapshot to path.
func WriteFile(path string, src Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeDegree packs ds into the secDegree layout documented in format.go:
// M = numLabels+1 records per direction, record numLabels being the
// all-labels aggregate; Edges fields omitted (recoverable from
// secEdgeLabelCount / numEdges).
func encodeDegree(ds *graph.DegreeStats, numLabels int) []byte {
	m := numLabels + 1
	b := make([]byte, degreeSectionSize(numLabels))
	rec := func(dir []graph.LabelDegree, all graph.LabelDegree, i int) graph.LabelDegree {
		if i < numLabels {
			return dir[i]
		}
		return all
	}
	carrierBase := func(d int) int { return d * 8 * m }    // u32 pair block per direction
	sumSqBase := 16 * m                                    // after both carrier/max blocks
	histBase := func(d int) int { return 32*m + d*4*16*m } // after both sumSq blocks
	for d := 0; d < 2; d++ {
		dir, all := ds.Out, ds.OutAll
		if d == 1 {
			dir, all = ds.In, ds.InAll
		}
		for i := 0; i < m; i++ {
			ld := rec(dir, all, i)
			putU32(b, carrierBase(d)+4*i, ld.Carriers)
			putU32(b, carrierBase(d)+4*m+4*i, ld.Max)
			putU64(b, sumSqBase+d*8*m+8*i, ld.SumSq)
			for h := 0; h < graph.DegreeBuckets; h++ {
				putU32(b, histBase(d)+(i*graph.DegreeBuckets+h)*4, ld.Hist[h])
			}
		}
	}
	return b
}

// degreeSectionSize is the exact secDegree payload length for a label
// count: 2 directions × M × (4+4 carriers/max + 8 sumSq + 4×16 hist).
func degreeSectionSize(numLabels int) int {
	return 2 * (numLabels + 1) * (4 + 4 + 8 + 4*graph.DegreeBuckets)
}

func write(w io.Writer, src Source, fi *FragmentInfo) error {
	if !isLE {
		return fmt.Errorf("store: snapshot format is little-endian; unsupported on this host")
	}
	// FlatCSR first: it finalizes a lazily-staged *graph.Graph, making
	// every count and column read below exact.
	f := src.FlatCSR()
	numNodes := src.NumNodes()
	numEdges := len(f.OutTo)
	numLabels := src.NumLabels()
	numAttrs := src.NumAttrs()
	numValues := src.NumValues()

	meta := []uint64{uint64(numNodes), uint64(numEdges), uint64(numLabels), uint64(numAttrs), uint64(numValues)}

	// Label index: per-label node lists flattened as offsets + pool. The
	// running totals here and below accumulate in int64: on 32-bit hosts
	// an int accumulator could wrap before the format-bound guard fires.
	byLabelOff := make([]uint32, numLabels+1)
	var byLabelNodes [][]byte
	total := int64(0)
	for l := 0; l < numLabels; l++ {
		nodes := src.NodesByLabelID(graph.LabelID(l))
		total += int64(len(nodes))
		if total > math.MaxUint32 {
			return fmt.Errorf("store: label index exceeds format bounds")
		}
		byLabelOff[l+1] = uint32(total)
		if len(nodes) > 0 {
			byLabelNodes = append(byLabelNodes, u32bytes(nodes))
		}
	}

	edgeLabelCount := make([]uint64, numLabels)
	for l := 0; l < numLabels; l++ {
		edgeLabelCount[l] = uint64(src.EdgeLabelCount(graph.LabelID(l)))
	}

	// Symbol pools: concatenated strings + offset tables.
	pool := func(n int, name func(int) string) ([]uint32, []byte, error) {
		offs := make([]uint32, n+1)
		var blob []byte
		for i := 0; i < n; i++ {
			blob = append(blob, name(i)...)
			if int64(len(blob)) > math.MaxUint32 {
				return nil, nil, fmt.Errorf("store: string pool exceeds format bounds")
			}
			offs[i+1] = uint32(len(blob))
		}
		return offs, blob, nil
	}
	labelOff, labelBlob, err := pool(numLabels, func(i int) string { return src.LabelName(graph.LabelID(i)) })
	if err != nil {
		return err
	}
	attrOff, attrBlob, err := pool(numAttrs, func(i int) string { return src.AttrName(graph.AttrID(i)) })
	if err != nil {
		return err
	}
	valOff, valBlob, err := pool(numValues, func(i int) string { return src.ValueName(graph.ValueID(i)) })
	if err != nil {
		return err
	}

	// Attribute columns: a kind tag per attribute, dense columns
	// concatenated in AttrID order, sparse pairs flattened behind a shared
	// offset table.
	attrKind := make([]uint32, numAttrs)
	var dense [][]byte
	sparseOff := make([]uint32, numAttrs+1)
	var sparseNodes, sparseVals [][]byte
	sparseTotal := int64(0)
	for a := 0; a < numAttrs; a++ {
		col := src.AttrColumn(graph.AttrID(a))
		if d := col.Dense(); d != nil {
			if len(d) != numNodes {
				return fmt.Errorf("store: attr %d: dense column covers %d of %d nodes", a, len(d), numNodes)
			}
			attrKind[a] = attrDense
			dense = append(dense, u32bytes(d))
		} else if nodes, vals := col.Sparse(); len(nodes) > 0 {
			attrKind[a] = attrSparse
			sparseTotal += int64(len(nodes))
			if sparseTotal > math.MaxUint32 {
				return fmt.Errorf("store: sparse attribute pool exceeds format bounds")
			}
			sparseNodes = append(sparseNodes, u32bytes(nodes))
			sparseVals = append(sparseVals, u32bytes(vals))
		}
		sparseOff[a+1] = uint32(sparseTotal)
	}

	secs := []section{
		{secMeta, [][]byte{u64bytes(meta)}},
		{secNodeLabels, [][]byte{u32bytes(src.NodeLabels())}},
		{secOutTo, [][]byte{u32bytes(f.OutTo)}},
		{secOutRunNode, [][]byte{u32bytes(f.OutRunNode)}},
		{secOutRunLabel, [][]byte{u32bytes(f.OutRunLabel)}},
		{secOutRunOff, [][]byte{u32bytes(f.OutRunOff)}},
		{secInTo, [][]byte{u32bytes(f.InTo)}},
		{secInRunNode, [][]byte{u32bytes(f.InRunNode)}},
		{secInRunLabel, [][]byte{u32bytes(f.InRunLabel)}},
		{secInRunOff, [][]byte{u32bytes(f.InRunOff)}},
		{secByLabelOff, [][]byte{u32bytes(byLabelOff)}},
		{secByLabelNodes, byLabelNodes},
		{secEdgeLabelCount, [][]byte{u64bytes(edgeLabelCount)}},
		{secLabelNameOff, [][]byte{u32bytes(labelOff)}},
		{secLabelNameBlob, [][]byte{labelBlob}},
		{secAttrNameOff, [][]byte{u32bytes(attrOff)}},
		{secAttrNameBlob, [][]byte{attrBlob}},
		{secValueNameOff, [][]byte{u32bytes(valOff)}},
		{secValueNameBlob, [][]byte{valBlob}},
		{secAttrKind, [][]byte{u32bytes(attrKind)}},
		{secAttrDense, dense},
		{secAttrSparseOff, [][]byte{u32bytes(sparseOff)}},
		{secAttrSparseNode, sparseNodes},
		{secAttrSparseVal, sparseVals},
	}
	if fi != nil {
		fb := make([]byte, 16)
		putU32(fb, 0, uint32(fi.Worker))
		putU32(fb, 4, uint32(fi.NodeLo))
		putU32(fb, 8, uint32(fi.NodeHi))
		secs = append(secs, section{secFragment, [][]byte{fb}})
	}
	// Degree statistics are always emitted (and always recomputed — or
	// fetched from the source's own cache — via DegreeStatsFor, which is
	// deterministic, so re-serialising a snapshot stays byte-identical).
	secs = append(secs, section{secDegree, [][]byte{encodeDegree(graph.DegreeStatsFor(src), numLabels)}})

	// Lay out the section table: payloads start 8-aligned after it.
	table := make([]byte, len(secs)*sectionEntry)
	off := align8(headerSize + int64(len(table)))
	for i := range secs {
		sz := secs[i].size()
		putU32(table, i*sectionEntry, secs[i].id)
		putU64(table, i*sectionEntry+8, uint64(off))
		putU64(table, i*sectionEntry+16, uint64(sz))
		off = align8(off + sz)
	}

	header := make([]byte, headerSize)
	copy(header, Magic)
	header[6] = byte(Version)
	header[7] = byte(Version >> 8)
	putU32(header, 8, uint32(len(secs)))

	// off is now the snapshot's total length: a small snapshot (a ParDis
	// fragment) needs no 1 MiB buffer.
	bw := bufio.NewWriterSize(w, int(min(off, 1<<20)))
	bw.Write(header)
	bw.Write(table)
	var pad [8]byte
	written := int64(headerSize + len(table))
	if p := align8(written) - written; p > 0 {
		bw.Write(pad[:p])
		written += p
	}
	for i := range secs {
		for _, c := range secs[i].chunks {
			if _, err := bw.Write(c); err != nil {
				return err
			}
			written += int64(len(c))
		}
		if p := align8(written) - written; p > 0 {
			bw.Write(pad[:p])
			written += p
		}
	}
	return bw.Flush()
}
