package store

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

var updateFixture = flag.Bool("update", false, "rewrite the committed snapshot fixture from the golden TSV graph")

// diffViews asserts that two views agree on every graph.View method — the
// full differential surface the snapshot format must preserve.
func diffViews(t *testing.T, want, got graph.View) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("NumNodes: %d vs %d", want.NumNodes(), got.NumNodes())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("NumEdges: %d vs %d", want.NumEdges(), got.NumEdges())
	}
	if want.NumLabels() != got.NumLabels() {
		t.Fatalf("NumLabels: %d vs %d", want.NumLabels(), got.NumLabels())
	}
	if want.NumAttrs() != got.NumAttrs() {
		t.Fatalf("NumAttrs: %d vs %d", want.NumAttrs(), got.NumAttrs())
	}
	if want.NumValues() != got.NumValues() {
		t.Fatalf("NumValues: %d vs %d", want.NumValues(), got.NumValues())
	}

	// Symbol pools: names and reverse lookups, all three namespaces.
	for l := 0; l < want.NumLabels(); l++ {
		id := graph.LabelID(l)
		name := want.LabelName(id)
		if g := got.LabelName(id); g != name {
			t.Fatalf("LabelName(%d): %q vs %q", l, name, g)
		}
		if gid, ok := got.LookupLabel(name); !ok || gid != id {
			t.Fatalf("LookupLabel(%q) = (%d, %v), want (%d, true)", name, gid, ok, id)
		}
	}
	for a := 0; a < want.NumAttrs(); a++ {
		id := graph.AttrID(a)
		name := want.AttrName(id)
		if g := got.AttrName(id); g != name {
			t.Fatalf("AttrName(%d): %q vs %q", a, name, g)
		}
		if gid, ok := got.LookupAttr(name); !ok || gid != id {
			t.Fatalf("LookupAttr(%q) = (%d, %v), want (%d, true)", name, gid, ok, id)
		}
	}
	for v := 0; v < want.NumValues(); v++ {
		id := graph.ValueID(v)
		name := want.ValueName(id)
		if g := got.ValueName(id); g != name {
			t.Fatalf("ValueName(%d): %q vs %q", v, name, g)
		}
		if gid, ok := got.LookupValue(name); !ok || gid != id {
			t.Fatalf("LookupValue(%q) = (%d, %v), want (%d, true)", name, gid, ok, id)
		}
	}
	if _, ok := got.LookupLabel("\x00no-such-label"); ok {
		t.Fatal("LookupLabel of absent label succeeded")
	}

	// Node store: labels, label index, attribute columns.
	for v := 0; v < want.NumNodes(); v++ {
		id := graph.NodeID(v)
		if want.NodeLabelID(id) != got.NodeLabelID(id) {
			t.Fatalf("NodeLabelID(%d): %d vs %d", v, want.NodeLabelID(id), got.NodeLabelID(id))
		}
	}
	for l := 0; l < want.NumLabels(); l++ {
		w, g := want.NodesByLabelID(graph.LabelID(l)), got.NodesByLabelID(graph.LabelID(l))
		if !sameNodes(w, g) {
			t.Fatalf("NodesByLabelID(%d): %v vs %v", l, w, g)
		}
		if want.EdgeLabelCount(graph.LabelID(l)) != got.EdgeLabelCount(graph.LabelID(l)) {
			t.Fatalf("EdgeLabelCount(%d): %d vs %d", l,
				want.EdgeLabelCount(graph.LabelID(l)), got.EdgeLabelCount(graph.LabelID(l)))
		}
	}
	if want.EdgeLabelCount(graph.NoLabel) != got.EdgeLabelCount(graph.NoLabel) {
		t.Fatalf("EdgeLabelCount(NoLabel): %d vs %d",
			want.EdgeLabelCount(graph.NoLabel), got.EdgeLabelCount(graph.NoLabel))
	}
	for a := 0; a < want.NumAttrs(); a++ {
		wc, gc := want.AttrColumn(graph.AttrID(a)), got.AttrColumn(graph.AttrID(a))
		if (wc.Dense() != nil) != (gc.Dense() != nil) {
			t.Fatalf("attr %d: layout diverged (dense %v vs %v)", a, wc.Dense() != nil, gc.Dense() != nil)
		}
		for v := 0; v < want.NumNodes(); v++ {
			id := graph.NodeID(v)
			if wc.ValueAt(id) != gc.ValueAt(id) {
				t.Fatalf("attr %d node %d: value %d vs %d", a, v, wc.ValueAt(id), gc.ValueAt(id))
			}
			if want.AttrValueID(id, graph.AttrID(a)) != got.AttrValueID(id, graph.AttrID(a)) {
				t.Fatalf("AttrValueID(%d, %d) diverged", v, a)
			}
		}
		name := want.AttrName(graph.AttrID(a))
		for _, v := range []int{0, want.NumNodes() / 2, want.NumNodes() - 1} {
			if v < 0 {
				continue
			}
			wv, wok := want.Attr(graph.NodeID(v), name)
			gv, gok := got.Attr(graph.NodeID(v), name)
			if wv != gv || wok != gok {
				t.Fatalf("Attr(%d, %q): (%q,%v) vs (%q,%v)", v, name, wv, wok, gv, gok)
			}
		}
	}

	// CSR adjacency: run structure, per-label neighbour lists, edge tests.
	for v := 0; v < want.NumNodes(); v++ {
		id := graph.NodeID(v)
		wlo, whi := want.OutRuns(id)
		glo, ghi := got.OutRuns(id)
		if whi-wlo != ghi-glo {
			t.Fatalf("OutRuns(%d): %d runs vs %d", v, whi-wlo, ghi-glo)
		}
		for i := 0; i < whi-wlo; i++ {
			wl, gl := want.OutRunLabel(wlo+i), got.OutRunLabel(glo+i)
			if wl != gl {
				t.Fatalf("OutRunLabel(%d run %d): %d vs %d", v, i, wl, gl)
			}
			if !sameNodes(want.OutRunNodes(wlo+i), got.OutRunNodes(glo+i)) {
				t.Fatalf("OutRunNodes(%d run %d) diverged", v, i)
			}
			if !sameNodes(want.OutTo(id, wl), got.OutTo(id, wl)) {
				t.Fatalf("OutTo(%d, %d) diverged", v, wl)
			}
		}
		wlo, whi = want.InRuns(id)
		glo, ghi = got.InRuns(id)
		if whi-wlo != ghi-glo {
			t.Fatalf("InRuns(%d): %d runs vs %d", v, whi-wlo, ghi-glo)
		}
		for i := 0; i < whi-wlo; i++ {
			wl, gl := want.InRunLabel(wlo+i), got.InRunLabel(glo+i)
			if wl != gl {
				t.Fatalf("InRunLabel(%d run %d): %d vs %d", v, i, wl, gl)
			}
			if !sameNodes(want.InRunNodes(wlo+i), got.InRunNodes(glo+i)) {
				t.Fatalf("InRunNodes(%d run %d) diverged", v, i)
			}
			if !sameNodes(want.InFrom(id, wl), got.InFrom(id, wl)) {
				t.Fatalf("InFrom(%d, %d) diverged", v, wl)
			}
		}
	}
	// HasEdgeID: every real edge plus random probes (hits wildcard too).
	r := rand.New(rand.NewSource(7))
	graph.ViewEdges(want, func(e graph.IEdge) bool {
		if !got.HasEdgeID(e.Src, e.Dst, e.Label) {
			t.Fatalf("HasEdgeID(%d,%d,%d) = false for a real edge", e.Src, e.Dst, e.Label)
		}
		return true
	})
	if n := want.NumNodes(); n > 0 {
		for i := 0; i < 200; i++ {
			s, d := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			l := graph.LabelID(r.Intn(want.NumLabels() + 1))
			if i%5 == 0 {
				l = graph.NoLabel
			}
			if want.HasEdgeID(s, d, l) != got.HasEdgeID(s, d, l) {
				t.Fatalf("HasEdgeID(%d,%d,%d) diverged", s, d, l)
			}
		}
	}
	if got.PlanCache() == nil {
		t.Fatal("nil PlanCache")
	}
}

func sameNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundTrip serialises src and reopens it in memory.
func roundTrip(t *testing.T, src Source) *MappedGraph {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	return m
}

func testGraphs() map[string]*graph.Graph {
	small := graph.New(4, 3)
	a := small.AddNode("a", map[string]string{"k": "v", "shared": "x"})
	b := small.AddNode("b", nil)
	c := small.AddNode("a", map[string]string{"shared": "x", "rare": "y"})
	small.AddNode("isolated", nil)
	small.AddEdge(a, b, "e1")
	small.AddEdge(a, b, "e1") // duplicate: de-duplicated at Finalize
	small.AddEdge(a, c, "e2")
	small.AddEdge(c, a, "e1")
	// Deliberately not finalized: Write must finalize lazily.

	return map[string]*graph.Graph{
		"empty":     graph.New(0, 0),
		"nodesOnly": nodesOnly(),
		"small":     small,
		"dbpedia":   dataset.DBpediaSim(150, 11),
		"yago2":     dataset.YAGO2Sim(120, 5),
		"synthetic": dataset.Synthetic(dataset.SyntheticConfig{Nodes: 200, Edges: 500, Seed: 3}),
	}
}

func nodesOnly() *graph.Graph {
	g := graph.New(3, 0)
	g.AddNode("x", map[string]string{"a": "1"})
	g.AddNode("y", nil)
	g.AddNode("x", nil)
	g.Finalize()
	return g
}

// TestRoundTripDifferential locks the format against the in-memory views:
// a snapshot must agree with its source on every View method, for graphs
// exercising both attribute layouts, duplicate edges, isolated nodes,
// edge-only labels and the empty graph.
func TestRoundTripDifferential(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			m := roundTrip(t, g)
			diffViews(t, g, m)
			if _, has := m.Fragment(); has {
				t.Fatal("whole-graph snapshot carries fragment metadata")
			}
		})
	}
}

// TestRoundTripFile exercises the real Open path (mmap where supported)
// through a file on disk, plus Close.
func TestRoundTripFile(t *testing.T) {
	g := dataset.DBpediaSim(200, 42)
	path := filepath.Join(t.TempDir(), "g.gfds")
	if err := WriteFile(path, g); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	diffViews(t, g, m)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCloseIdempotent locks the Close contract: a mapping is released
// exactly once no matter how many times — or from how many goroutines —
// Close is called. Error-path cleanup (a failed Attach closing fragments
// it opened, plus deferred closes) double-Closes routinely; before this
// contract the second call could unmap an address range a later mapping
// had already reused.
func TestCloseIdempotent(t *testing.T) {
	g := dataset.DBpediaSim(100, 7)
	path := filepath.Join(t.TempDir(), "g.gfds")
	if err := WriteFile(path, g); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	t.Run("sequential", func(t *testing.T) {
		m, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("first Close: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := m.Close(); err != nil {
				t.Fatalf("Close #%d after Close: %v", i+2, err)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		m, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = m.Close()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("concurrent Close #%d: %v", i, err)
			}
		}
	})
}

// TestSubCSRRoundTrip writes a fragment view with metadata and checks the
// reopened snapshot agrees with the SubCSR (fragment-local edge set,
// shared node store) and carries the metadata.
func TestSubCSRRoundTrip(t *testing.T) {
	g := dataset.YAGO2Sim(100, 9)
	var edges []graph.IEdge
	i := 0
	graph.ViewEdges(g, func(e graph.IEdge) bool {
		if i%3 != 0 {
			edges = append(edges, e)
		}
		i++
		return true
	})
	sub := graph.NewSubCSR(g, edges)

	var buf bytes.Buffer
	fi := FragmentInfo{Worker: 2, NodeLo: 10, NodeHi: 60}
	if err := WriteFragment(&buf, sub, fi); err != nil {
		t.Fatalf("WriteFragment: %v", err)
	}
	m, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	diffViews(t, sub, m)
	got, has := m.Fragment()
	if !has || got != fi {
		t.Fatalf("Fragment() = (%+v, %v), want (%+v, true)", got, has, fi)
	}
}

// TestReserialise locks writer determinism: re-serialising an opened
// snapshot reproduces the exact bytes (MappedGraph is a Source, layouts
// and ID orders survive unchanged).
func TestReserialise(t *testing.T) {
	g := dataset.DBpediaSim(150, 4)
	var buf1 bytes.Buffer
	if err := Write(&buf1, g); err != nil {
		t.Fatal(err)
	}
	m, err := OpenBytes(buf1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialising an opened snapshot changed the bytes")
	}

	// Fragment snapshots round-trip losslessly too: Write carries the
	// source's fragment metadata through.
	var fbuf1 bytes.Buffer
	if err := WriteFragment(&fbuf1, g, FragmentInfo{Worker: 3, NodeLo: 5, NodeHi: 99}); err != nil {
		t.Fatal(err)
	}
	fm, err := OpenBytes(fbuf1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var fbuf2 bytes.Buffer
	if err := Write(&fbuf2, fm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fbuf1.Bytes(), fbuf2.Bytes()) {
		t.Fatal("re-serialising a fragment snapshot dropped or changed its metadata")
	}
}

// TestGeneratedSnapshotReproducible: building the same generated graph
// again writes the same snapshot bytes. The generators pass each node's
// attributes to AddNode as a map, so this holds only because AddNode
// interns them in sorted name order rather than in map order.
func TestGeneratedSnapshotReproducible(t *testing.T) {
	var first []byte
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, dataset.YAGO2Sim(60, 2)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("build %d of YAGO2Sim(60, 2) wrote a different snapshot", i+1)
		}
	}
}

// TestOpenBytesMisaligned: the decoder must cope with an arbitrarily
// aligned buffer (one realignment copy, then identical behaviour).
func TestOpenBytesMisaligned(t *testing.T) {
	g := nodesOnly()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, buf.Len()+1)
	copy(shifted[1:], buf.Bytes())
	m, err := OpenBytes(shifted[1:])
	if err != nil {
		t.Fatalf("OpenBytes(misaligned): %v", err)
	}
	diffViews(t, g, m)
}

// TestCorruptionRejected: truncations and targeted corruptions must all
// error out of OpenBytes — never panic (the fuzz target explores this
// space much more widely).
func TestCorruptionRejected(t *testing.T) {
	g := dataset.DBpediaSim(60, 2)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Find the true payload end (the file may carry alignment padding
	// past the last section, which a truncation may legally shave).
	payloadEnd := 0
	for i := 0; i < int(getU32(valid, 8)); i++ {
		base := headerSize + i*sectionEntry
		if end := int(getU64(valid, base+8) + getU64(valid, base+16)); end > payloadEnd {
			payloadEnd = end
		}
	}
	for _, n := range []int{0, 1, 5, headerSize - 1, headerSize, headerSize + 7, len(valid) / 2, payloadEnd - 1} {
		if _, err := OpenBytes(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	mutate := func(name string, off int, b byte) {
		data := append([]byte(nil), valid...)
		data[off] ^= b
		if _, err := OpenBytes(data); err == nil {
			// A flipped bit may land in padding or in a payload whose
			// values stay in range; only structural fields are guaranteed
			// to be caught. The named cases below target those.
			t.Fatalf("%s: corruption at %d accepted", name, off)
		}
	}
	mutate("magic", 0, 0xff)
	mutate("version", 6, 0xff)
	mutate("section count", 8, 0xff)
	mutate("section id", headerSize, 0xff)
	mutate("section off", headerSize+8, 0xff)
	mutate("section len", headerSize+16, 0xff)

	// A transposed adjacency pair: both IDs stay in range, so only the
	// sort-invariant check can catch it — a silent miss in the binary
	// searches otherwise.
	sortG := graph.New(3, 2)
	s0 := sortG.AddNode("s", nil)
	d1 := sortG.AddNode("d", nil)
	d2 := sortG.AddNode("d", nil)
	sortG.AddEdge(s0, d1, "e")
	sortG.AddEdge(s0, d2, "e")
	var sbuf bytes.Buffer
	if err := Write(&sbuf, sortG); err != nil {
		t.Fatal(err)
	}
	sdata := sbuf.Bytes()
	for i := 0; i < int(getU32(sdata, 8)); i++ {
		base := headerSize + i*sectionEntry
		if getU32(sdata, base) == secOutTo {
			off := int(getU64(sdata, base+8))
			sdata[off], sdata[off+4] = sdata[off+4], sdata[off] // swap dst 1 and 2
		}
	}
	if _, err := OpenBytes(sdata); err == nil {
		t.Fatal("transposed out-run adjacency accepted")
	}

	// Meta counts blown up: must reject before any big allocation.
	data := append([]byte(nil), valid...)
	// secMeta is the first section; find its payload offset from the table.
	metaOff := int(getU64(data, headerSize+8))
	for i := 0; i < 8; i++ {
		data[metaOff+i] = 0xff
	}
	if _, err := OpenBytes(data); err == nil {
		t.Fatal("absurd node count accepted")
	}
}

const (
	goldenTSV     = "../testutil/testdata/golden_graph.tsv"
	goldenFixture = "testdata/golden_graph.gfds"
)

// TestGoldenFixture locks the on-disk encoding: the committed snapshot of
// the golden graph must (a) still open and agree with the TSV original,
// and (b) be byte-identical to what the current writer produces — any
// intentional format change must regenerate it with -update (and bump
// Version per the format.go rules).
func TestGoldenFixture(t *testing.T) {
	f, err := os.Open(goldenTSV)
	if err != nil {
		t.Fatalf("open golden TSV: %v", err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("read golden TSV: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if *updateFixture {
		if err := os.WriteFile(goldenFixture, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("fixture rewritten: %d bytes", buf.Len())
		return
	}
	want, err := os.ReadFile(goldenFixture)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatal("writer output diverged from the committed fixture; if intentional, regenerate with -update and review the format versioning rules in format.go")
	}
	m, err := Open(goldenFixture)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer m.Close()
	diffViews(t, g, m)
}

// TestLoadGraphSniff: the auto-detecting loader must route snapshots to
// the zero-copy path and everything else to the TSV reader.
func TestLoadGraphSniff(t *testing.T) {
	g := dataset.YAGO2Sim(60, 8)
	dir := t.TempDir()

	snapPath := filepath.Join(dir, "g.gfds")
	if err := WriteFile(snapPath, g); err != nil {
		t.Fatal(err)
	}
	v, closeFn, err := LoadGraph(snapPath)
	if err != nil {
		t.Fatalf("LoadGraph(snapshot): %v", err)
	}
	if _, ok := v.(*MappedGraph); !ok {
		t.Fatalf("snapshot loaded as %T, want *MappedGraph", v)
	}
	diffViews(t, g, v)
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	tsvPath := filepath.Join(dir, "g.tsv")
	tf, err := os.Create(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(tf, g); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	v, closeFn, err = LoadGraph(tsvPath)
	if err != nil {
		t.Fatalf("LoadGraph(tsv): %v", err)
	}
	defer closeFn()
	if _, ok := v.(*graph.Graph); !ok {
		t.Fatalf("TSV loaded as %T, want *graph.Graph", v)
	}
	if v.NumNodes() != g.NumNodes() || v.NumEdges() != g.NumEdges() {
		t.Fatalf("TSV round trip mismatch: %v vs %v", v, g)
	}

	if _, _, err := LoadGraph(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestMatchingOverSnapshot is a minimal end-to-end sanity check that the
// matching layer runs off the mapped bytes (the golden mining tests lock
// the full pipeline).
func TestMatchingOverSnapshot(t *testing.T) {
	g := dataset.DBpediaSim(100, 6)
	m := roundTrip(t, g)
	stats := graph.NewStats(m)
	want := graph.NewStats(g)
	if fmt.Sprint(stats.TripleCount) == "" || len(stats.TripleCount) != len(want.TripleCount) {
		t.Fatalf("stats off snapshot diverged: %d triples vs %d", len(stats.TripleCount), len(want.TripleCount))
	}
	for k, c := range want.TripleCount {
		if stats.TripleCount[k] != c {
			t.Fatalf("triple %v: %d vs %d", k, stats.TripleCount[k], c)
		}
	}
}
