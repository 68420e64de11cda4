package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/store"
)

// hubGraph is a random graph whose edges all leave a few hub nodes, so a
// vertex cut into more fragments than hubs leaves some fragment edgeless.
func hubGraph(seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(60, 120)
	for i := 0; i < 60; i++ {
		g.AddNode([]string{"a", "b"}[r.Intn(2)], nil)
	}
	for i := 0; i < 120; i++ {
		src, dst := graph.NodeID(10+10*r.Intn(2)), graph.NodeID(r.Intn(60))
		if src != dst {
			g.AddEdge(src, dst, []string{"x", "y", "z"}[r.Intn(3)])
		}
	}
	g.Finalize()
	return g
}

// TestSpillAttach: a spilled vertex cut must reattach as mmap-backed
// fragments that agree with the heap SubCSRs edge-for-edge, carry the
// same ownership metadata, report the same edge bounds (edgeless
// fragments included), and share the base graph's node store.
func TestSpillAttach(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		n    int
	}{
		{"n=1", dataset.DBpediaSim(150, 7), 1},
		{"n=3", dataset.DBpediaSim(150, 7), 3},
		{"n=4", dataset.DBpediaSim(150, 7), 4},
		{"hubs/n=4", hubGraph(3), 4},
	}
	edgeless := 0
	for _, tc := range cases {
		g, n := tc.g, tc.n
		t.Run(tc.name, func(t *testing.T) {
			frags := VertexCut(g, n)
			dir := t.TempDir()
			if err := Spill(dir, g, frags); err != nil {
				t.Fatalf("Spill: %v", err)
			}
			att, err := Attach(dir)
			if err != nil {
				t.Fatalf("Attach: %v", err)
			}
			defer att.Close()

			if att.Workers() != n {
				t.Fatalf("attached %d fragments, want %d", att.Workers(), n)
			}
			if att.Graph.NumNodes() != g.NumNodes() || att.Graph.NumEdges() != g.NumEdges() {
				t.Fatalf("attached graph %v, want %v", att.Graph, g)
			}
			for w, f := range att.Frags {
				want := frags[w]
				if f.Worker != w || f.NodeLo != want.NodeLo || f.NodeHi != want.NodeHi {
					t.Fatalf("worker %d metadata: got [%d,%d) worker %d, want [%d,%d)",
						w, f.NodeLo, f.NodeHi, f.Worker, want.NodeLo, want.NodeHi)
				}
				if f.Sub.NumEdges() != want.Sub.NumEdges() {
					t.Fatalf("worker %d: %d edges attached, %d in heap fragment", w, f.Sub.NumEdges(), want.Sub.NumEdges())
				}
				if got, heap := f.Sub.(*store.MappedGraph).EdgeBounds(), want.Sub.(*graph.SubCSR).EdgeBounds(); got != heap {
					t.Fatalf("worker %d (%d edges): attached bounds %+v, heap bounds %+v", w, f.Sub.NumEdges(), got, heap)
				}
				if f.Sub.NumEdges() == 0 {
					edgeless++
				}
				var heap, mapped []graph.IEdge
				graph.ViewEdges(want.Sub, func(e graph.IEdge) bool { heap = append(heap, e); return true })
				graph.ViewEdges(f.Sub, func(e graph.IEdge) bool { mapped = append(mapped, e); return true })
				if len(heap) != len(mapped) {
					t.Fatalf("worker %d: edge walks differ in length", w)
				}
				for i := range heap {
					if heap[i] != mapped[i] {
						t.Fatalf("worker %d edge %d: %v vs %v", w, i, heap[i], mapped[i])
					}
				}
			}
		})
	}
	if edgeless == 0 {
		t.Fatal("degenerate: no attached fragment was edgeless")
	}
}

// TestAttachErrors: incomplete or inconsistent spill directories must be
// rejected.
func TestAttachErrors(t *testing.T) {
	if _, err := Attach(t.TempDir()); err == nil {
		t.Fatal("empty dir attached")
	}

	g := dataset.YAGO2Sim(60, 3)
	dir := t.TempDir()
	if err := Spill(dir, g, VertexCut(g, 3)); err != nil {
		t.Fatal(err)
	}
	// Remove a middle fragment: the worker set is no longer contiguous.
	if err := os.Remove(filepath.Join(dir, FragmentSnapshotName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dir); err == nil {
		t.Fatal("non-contiguous worker set attached")
	}

	// A directory mixing fragments of two different cuts over the same
	// graph: worker indexes are contiguous but the ownership ranges no
	// longer tile the node space — must be rejected, not mined wrong.
	dir3 := t.TempDir()
	if err := Spill(dir3, g, VertexCut(g, 3)); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := Spill(dir2, g, VertexCut(g, 2)); err != nil {
		t.Fatal(err)
	}
	alien, err := os.ReadFile(filepath.Join(dir2, FragmentSnapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir3, FragmentSnapshotName(1)), alien, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dir3); err == nil {
		t.Fatal("mixed-cut directory attached")
	}

	// A directory whose graph.gfds comes from a different graph than its
	// fragments (same generator, different seed): node stores diverge by
	// content, and ID-based result merging would be unsound — reject.
	other := dataset.YAGO2Sim(60, 99)
	dirM := t.TempDir()
	if err := Spill(dirM, g, VertexCut(g, 2)); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile(filepath.Join(dirM, GraphSnapshotName), other); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dirM); err == nil {
		t.Fatal("mixed-graph directory attached")
	}
}

// TestAttachStructuredError: a defective directory must be reported as an
// *AttachError naming every problem — a missing fragment AND a truncated
// one in the same directory both appear, not just whichever the scan hits
// first.
func TestAttachStructuredError(t *testing.T) {
	g := dataset.YAGO2Sim(60, 3)
	dir := t.TempDir()
	if err := Spill(dir, g, VertexCut(g, 4)); err != nil {
		t.Fatal(err)
	}
	// Two independent defects: worker 1's file is gone, worker 2's is
	// truncated mid-section.
	if err := os.Remove(filepath.Join(dir, FragmentSnapshotName(1))); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, FragmentSnapshotName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FragmentSnapshotName(2)), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Attach(dir)
	if err == nil {
		t.Fatal("defective directory attached")
	}
	var ae *AttachError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T, want *AttachError: %v", err, err)
	}
	if ae.Dir != dir {
		t.Fatalf("AttachError.Dir = %q, want %q", ae.Dir, dir)
	}
	byFile := map[string]error{}
	for _, p := range ae.Problems {
		byFile[p.File] = p.Err
	}
	if _, ok := byFile[FragmentSnapshotName(1)]; !ok {
		t.Fatalf("missing %s not reported; problems: %v", FragmentSnapshotName(1), err)
	}
	if _, ok := byFile[FragmentSnapshotName(2)]; !ok {
		t.Fatalf("truncated %s not reported; problems: %v", FragmentSnapshotName(2), err)
	}
	if !errors.Is(err, errMissing) {
		t.Fatalf("errors.Is(err, errMissing) = false; err: %v", err)
	}
	if !strings.Contains(err.Error(), FragmentSnapshotName(1)) || !strings.Contains(err.Error(), FragmentSnapshotName(2)) {
		t.Fatalf("Error() does not name both defective files:\n%v", err)
	}
}

// TestAttachCrashMidSpill simulates a Spill killed between the temp-write
// and rename phases: the directory holds the previous committed set plus
// ".tmp-*" staging leftovers (one of them a partial write). Attach must
// skip the temp files — never mapping a partial one — and recover the
// committed set cleanly.
func TestAttachCrashMidSpill(t *testing.T) {
	g := dataset.DBpediaSim(80, 5)
	dir := t.TempDir()
	if err := Spill(dir, g, VertexCut(g, 2)); err != nil {
		t.Fatal(err)
	}

	// A wider re-spill crashed before its rename phase: full and partial
	// staged files are left behind.
	full, err := os.ReadFile(filepath.Join(dir, FragmentSnapshotName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-"+FragmentSnapshotName(2)), full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-"+FragmentSnapshotName(3)), full[:len(full)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	att, err := Attach(dir)
	if err != nil {
		t.Fatalf("Attach with stale temp files: %v", err)
	}
	defer att.Close()
	if att.Workers() != 2 {
		t.Fatalf("attached %d fragments, want the 2 committed ones", att.Workers())
	}

	// If the committed set is ALSO broken, the stale files show up in the
	// error as context (crashed spill) next to the real problem.
	if err := os.Remove(filepath.Join(dir, FragmentSnapshotName(1))); err != nil {
		t.Fatal(err)
	}
	_, err = Attach(dir)
	var ae *AttachError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T, want *AttachError: %v", err, err)
	}
	if len(ae.Stale) != 2 {
		t.Fatalf("AttachError.Stale = %v, want the two .tmp- leftovers", ae.Stale)
	}
	if !strings.Contains(err.Error(), ".tmp-"+FragmentSnapshotName(3)) {
		t.Fatalf("stale temp files not surfaced in error:\n%v", err)
	}

	// A directory holding nothing but staging leftovers (spill crashed on
	// the very first cut) errors cleanly and says why.
	onlyTmp := t.TempDir()
	if err := store.WriteFile(filepath.Join(onlyTmp, GraphSnapshotName), g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(onlyTmp, ".tmp-"+FragmentSnapshotName(0)), full[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(onlyTmp); err == nil || !strings.Contains(err.Error(), "crashed spill") {
		t.Fatalf("tmp-only directory: err = %v, want a crashed-spill diagnosis", err)
	}
}

// --- Golden mining over mmap-backed fragments ---

const (
	goldenGraphPath = "../testutil/testdata/golden_graph.tsv"
	goldenGFDsPath  = "../testutil/testdata/golden_gfds.txt"
)

// goldenSpillOptions mirrors the root golden test's fixed configuration.
func goldenSpillOptions() discovery.Options {
	return discovery.Options{
		K:                3,
		Support:          2,
		MaxX:             2,
		ConstantsPerAttr: 3,
		WildcardNodes:    true,
		MaxNegatives:     200,
	}
}

func canonicalizeResult(res *discovery.Result) string {
	var lines []string
	for _, m := range res.Positives {
		lines = append(lines, fmt.Sprintf("P\t%s\tsupp=%d\tlevel=%d", m.GFD.Key(), m.Support, m.Level))
	}
	for _, m := range res.Negatives {
		lines = append(lines, fmt.Sprintf("N\t%s\tsupp=%d\tlevel=%d", m.GFD.Key(), m.Support, m.Level))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestGoldenMiningSpilled locks the persistent-fragment path to the
// committed golden bytes: ParDis over fragments spilled to disk and
// reattached as zero-copy MappedGraph views — master view included — must
// mine exactly the same GFD set as the in-memory sequential run, at every
// worker count the in-memory golden parallel test covers.
func TestGoldenMiningSpilled(t *testing.T) {
	f, err := os.Open(goldenGraphPath)
	if err != nil {
		t.Fatalf("open golden graph: %v", err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("read golden graph: %v", err)
	}
	want, err := os.ReadFile(goldenGFDsPath)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}

	for _, workers := range []int{1, 2, 3, 4, 5, 7} {
		dir := t.TempDir()
		if err := Spill(dir, g, VertexCut(g, workers)); err != nil {
			t.Fatalf("n=%d: Spill: %v", workers, err)
		}
		att, err := Attach(dir)
		if err != nil {
			t.Fatalf("n=%d: Attach: %v", workers, err)
		}
		eng := cluster.New(cluster.Config{Workers: workers})
		res := MineFragments(context.Background(), att.Graph, att.Frags, goldenSpillOptions(), eng, Options{LoadBalance: true})
		// Canonicalize before Close: rendering copies the literal strings
		// out of the mapping.
		got := canonicalizeResult(res.Result)
		if err := att.Close(); err != nil {
			t.Fatalf("n=%d: Close: %v", workers, err)
		}
		if got != string(want) {
			t.Fatalf("mmap-fragment mining (n=%d) diverged from golden output.\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestSpilledFragmentStandalone: any single fragment snapshot is
// self-contained — it opens with no other state and its node store
// matches the base graph's.
func TestSpilledFragmentStandalone(t *testing.T) {
	g := dataset.DBpediaSim(80, 13)
	dir := t.TempDir()
	if err := Spill(dir, g, VertexCut(g, 4)); err != nil {
		t.Fatal(err)
	}
	m, err := store.Open(filepath.Join(dir, FragmentSnapshotName(2)))
	if err != nil {
		t.Fatalf("standalone open: %v", err)
	}
	defer m.Close()
	fi, ok := m.Fragment()
	if !ok || fi.Worker != 2 {
		t.Fatalf("fragment metadata = (%+v, %v)", fi, ok)
	}
	if m.NumNodes() != g.NumNodes() || m.NumLabels() != g.NumLabels() || m.NumValues() != g.NumValues() {
		t.Fatalf("fragment node store diverged: %v vs %v", m, g)
	}
	// A fragment's attribute plane is the whole graph's.
	for a := 0; a < g.NumAttrs(); a++ {
		wc, gc := g.AttrColumn(graph.AttrID(a)), m.AttrColumn(graph.AttrID(a))
		for v := 0; v < g.NumNodes(); v++ {
			if wc.ValueAt(graph.NodeID(v)) != gc.ValueAt(graph.NodeID(v)) {
				t.Fatalf("attr %d node %d diverged", a, v)
			}
		}
	}
}
