package remote

// Fuzz targets for the decoders that read an extend exchange off the
// wire. For any input, each must hold three properties: it never panics;
// it allocates at most a constant plus a small multiple of the input
// length, whatever counts and lengths the input claims; and whatever it
// accepts re-encodes to bytes that decode back to the same value. The
// seeds are valid encodings of real batches, plus truncations and bit
// flips of them. Run one with, e.g.:
//
//	go test -run '^$' -fuzz '^FuzzDecodeExtend$' -fuzztime 10s ./internal/remote

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/pattern"
)

// allocBound is the most a decoder may allocate for an n-byte input:
// sixteen bytes per input byte plus a constant that covers readPayload's
// first chunk and error formatting.
func allocBound(n int) uint64 { return 16*uint64(n) + 2*readChunk }

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// seedBatches encodes real extend requests and their responses over a
// small graph: every test batch over its full parent table, over a
// three-row slice of it, and over an empty table.
func seedBatches(tb testing.TB) (reqs, resps [][]byte) {
	g := dataset.DBpediaSim(40, 1)
	for _, b := range testBatches(g) {
		full := match.EdgeMatches(g, b.parent, nil)
		for _, t := range []*match.Table{full, full.Slice(0, min(3, full.Len())), match.NewTable(b.parent)} {
			reqs = append(reqs, encodeExtend(t, b.children))
			resps = append(resps, encodeExtendOK(match.ExtendIndexedBatch(g, t, b.children)))
		}
	}
	if len(reqs) == 0 {
		tb.Fatal("no seed batches")
	}
	return reqs, resps
}

// addMutations seeds f with valid, its truncations and single bit flips.
func addMutations(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	for off := 0; off < len(valid); off += 1 + len(valid)/8 {
		mut := slices.Clone(valid)
		mut[off] ^= 0x10
		f.Add(mut)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader. A frame it
// accepts must re-frame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	reqs, resps := seedBatches(f)
	for _, p := range [][]byte{nil, []byte("ping"), reqs[0], resps[0]} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, msgExtendBatch, 7, p); err != nil {
			f.Fatal(err)
		}
		addMutations(f, buf.Bytes())
	}
	// A header claiming a near-maxFrame payload that never arrives.
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], maxFrame-1)
	f.Add(hdr[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		var typ, tag uint32
		var payload []byte
		var n int
		var err error
		if a := allocated(func() { typ, tag, payload, n, err = readFrame(bytes.NewReader(data)) }); a > allocBound(len(data)) {
			t.Fatalf("readFrame allocated %d bytes for a %d-byte input", a, len(data))
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, typ, tag, payload); err != nil {
			t.Fatal(err)
		}
		if n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("accepted frame (type %d, tag %d, %d payload bytes) does not re-frame to its %d input bytes", typ, tag, len(payload), n)
		}
	})
}

// samePattern reports equal arity, pivot, labels and edges.
func samePattern(a, b *pattern.Pattern) bool {
	return a.Pivot == b.Pivot && slices.Equal(a.NodeLabels, b.NodeLabels) && slices.Equal(a.Edges, b.Edges)
}

// FuzzDecodeExtend feeds arbitrary payloads to the batch request
// decoder. A request it accepts must encode and decode back to the same
// children and parent table.
func FuzzDecodeExtend(f *testing.F) {
	reqs, _ := seedBatches(f)
	for _, r := range reqs {
		addMutations(f, r)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tbl *match.Table
		var children []*pattern.Pattern
		var err error
		if a := allocated(func() { tbl, children, err = decodeExtend(data) }); a > allocBound(len(data)) {
			t.Fatalf("decodeExtend allocated %d bytes for a %d-byte payload", a, len(data))
		}
		if err != nil {
			return
		}
		tbl2, children2, err := decodeExtend(encodeExtend(tbl, children))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if tbl2.P.N() != tbl.P.N() || !sameTable(tbl, tbl2) || len(children2) != len(children) {
			t.Fatal("round trip changed the parent table or the child count")
		}
		for i := range children {
			if !samePattern(children[i], children2[i]) {
				t.Fatalf("round trip changed child %d: %v -> %v", i, children[i], children2[i])
			}
		}
	})
}

// FuzzDecodeExtendOK feeds arbitrary payloads to the batch response
// decoder. A response it accepts must encode and decode back to the same
// shares.
func FuzzDecodeExtendOK(f *testing.F) {
	_, resps := seedBatches(f)
	for _, r := range resps {
		addMutations(f, r)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var exts []match.IndexedExt
		var err error
		if a := allocated(func() { exts, err = decodeExtendOK(data) }); a > allocBound(len(data)) {
			t.Fatalf("decodeExtendOK allocated %d bytes for a %d-byte payload", a, len(data))
		}
		if err != nil {
			return
		}
		exts2, err := decodeExtendOK(encodeExtendOK(exts))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if len(exts2) != len(exts) {
			t.Fatalf("round trip changed the share count: %d -> %d", len(exts), len(exts2))
		}
		for i := range exts {
			if !sameExt(exts[i], exts2[i]) {
				t.Fatalf("round trip changed share %d", i)
			}
		}
	})
}
