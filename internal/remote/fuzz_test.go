package remote

// Fuzz targets for the decoders that read a peer's bytes off the wire:
// frames, extend batches and their responses, the hello handshake, the
// membership announcement and the compressed snapshot transfer. For any
// input, each must hold three properties: it never panics; it allocates
// at most a constant plus a small multiple of the input length, whatever
// counts and lengths the input claims (for the snapshot, a multiple
// bounded by deflate's expansion); and whatever it accepts re-encodes to
// bytes that decode back to the same value. The seeds are valid encodings
// of real exchanges, plus truncations and bit flips of them. Run one
// with, e.g.:
//
//	go test -run '^$' -fuzz '^FuzzDecodeExtend$' -fuzztime 10s -fuzzminimizetime 1000x ./internal/remote
//
// The minimise cap matters for FuzzDecodeSectionsZ: its seeds are a few
// KB, and minimising one new input under the default 60 s cap would use
// a short run up.

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/store"
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

// seedPeers returns the real hello, announcement and compressed snapshot
// payloads of both fragments of a small graph's two-way cut.
func seedPeers(tb testing.TB) (hellos, announces, sections [][]byte) {
	dir := spillGraph(tb, dataset.YAGO2Sim(60, 2), 2)
	for w := 0; w < 2; w++ {
		path := filepath.Join(dir, parallel.FragmentSnapshotName(w))
		m, err := store.Open(path)
		if err != nil {
			tb.Fatal(err)
		}
		s, err := NewServer(m, ServerOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		hellos = append(hellos, s.hello())
		announces = append(announces, encodeAnnounce(announceFrag(tb, path, "127.0.0.1:7711", uint64(w))))
		typ, z, err := s.sections(binary.LittleEndian.AppendUint32(nil, sectionsAcceptFlate))
		m.Close()
		if err != nil || typ != msgSectionsZ {
			tb.Fatalf("sections: type %d, %v", typ, err)
		}
		sections = append(sections, z)
	}
	return hellos, announces, sections
}

// FuzzDecodeHelloOK feeds arbitrary payloads to the handshake decoder. A
// hello it accepts must encode and decode back to the same value.
func FuzzDecodeHelloOK(f *testing.F) {
	hellos, _, _ := seedPeers(f)
	for _, h := range hellos {
		addMutations(f, h)
	}
	// The fixed fields followed by a claim of 1<<20 edge-label counts
	// that the payload does not carry.
	claim := binary.LittleEndian.AppendUint32(slices.Clone(hellos[0][:60]), 1<<20)
	f.Add(claim)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h helloInfo
		var err error
		if a := allocated(func() { h, err = decodeHelloOK(data) }); a > allocBound(len(data)) {
			t.Fatalf("decodeHelloOK allocated %d bytes for a %d-byte payload", a, len(data))
		}
		if err != nil {
			return
		}
		h2, err := decodeHelloOK(encodeHelloOK(h))
		if err != nil {
			t.Fatalf("re-encoded hello does not decode: %v", err)
		}
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("round trip changed the hello: %+v -> %+v", h, h2)
		}
	})
}

// FuzzDecodeAnnounce feeds arbitrary payloads to the announcement
// decoder. An announcement it accepts must encode and decode back to the
// same value.
func FuzzDecodeAnnounce(f *testing.F) {
	_, announces, _ := seedPeers(f)
	for _, a := range announces {
		addMutations(f, a)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a AnnounceInfo
		var err error
		if n := allocated(func() { a, err = decodeAnnounce(data) }); n > allocBound(len(data)) {
			t.Fatalf("decodeAnnounce allocated %d bytes for a %d-byte payload", n, len(data))
		}
		if err != nil {
			return
		}
		a2, err := decodeAnnounce(encodeAnnounce(a))
		if err != nil {
			t.Fatalf("re-encoded announcement does not decode: %v", err)
		}
		if a != a2 {
			t.Fatalf("round trip changed the announcement: %+v -> %+v", a, a2)
		}
	})
}

// sectionsAllocBound is the most decodeSectionsZ may allocate for an
// n-byte payload: the snapshot the payload can expand to, plus
// allocBound's share for the decoder's own state.
func sectionsAllocBound(n int) uint64 { return maxDeflateRatio*uint64(n) + allocBound(n) }

// FuzzDecodeSectionsZ feeds arbitrary payloads to the compressed snapshot
// decoder. A snapshot it accepts must compress and decode back to the
// same bytes.
func FuzzDecodeSectionsZ(f *testing.F) {
	_, _, sections := seedPeers(f)
	for _, z := range sections {
		addMutations(f, z)
	}
	// A real payload whose length word claims a 64 MiB snapshot.
	claim := slices.Clone(sections[0])
	binary.LittleEndian.PutUint64(claim, 64<<20)
	f.Add(claim)
	// The same payload with its last section, and the length word, grown
	// by 64 MiB: a table that agrees with the claim but lays out more
	// than the compressed bytes present can expand to. The prefix starts
	// at byte 12, its section count at 8 and entry i at 16+24i, with the
	// section's length at 16 into the entry.
	grown := slices.Clone(sections[0])
	nsec := int(binary.LittleEndian.Uint32(grown[12+8:]))
	last := 12 + 16 + 24*(nsec-1) + 16
	binary.LittleEndian.PutUint64(grown[last:], binary.LittleEndian.Uint64(grown[last:])+64<<20)
	binary.LittleEndian.PutUint64(grown, binary.LittleEndian.Uint64(grown)+64<<20)
	f.Add(grown)

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap []byte
		var err error
		if a := allocated(func() { snap, err = decodeSectionsZ(data) }); a > sectionsAllocBound(len(data)) {
			t.Fatalf("decodeSectionsZ allocated %d bytes for a %d-byte payload", a, len(data))
		}
		if err != nil {
			return
		}
		z, err := encodeSectionsZ(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		snap2, err := decodeSectionsZ(z)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatalf("round trip changed the snapshot: %d -> %d bytes", len(snap), len(snap2))
		}
	})
}
