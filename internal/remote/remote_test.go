package remote

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/store"
)

// testBackoff keeps retry tests fast: tight delays, few attempts.
func testBackoff() Backoff {
	return Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 4}
}

// spillGraph writes g's n-way vertex cut to a temp dir and returns it.
func spillGraph(t testing.TB, g *graph.Graph, n int) string {
	t.Helper()
	dir := t.TempDir()
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, n)); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	return dir
}

// startServer serves one spilled fragment on loopback TCP and returns its
// address plus the server handle (already scheduled for cleanup).
func startServer(t *testing.T, fragPath string, opts ServerOptions) (string, *Server) {
	t.Helper()
	m, err := store.Open(fragPath)
	if err != nil {
		t.Fatalf("open fragment: %v", err)
	}
	s, err := NewServer(m, opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return l.Addr().String(), s
}

// testChildren builds a spread of parent tables and child patterns over
// g: concrete and wildcard edge labels, outgoing and incoming new-node
// extensions, and a closing edge.
func testChildren(g *graph.Graph) []struct {
	parent *pattern.Pattern
	child  *pattern.Pattern
} {
	el := ""
	for l := 0; l < g.NumLabels(); l++ {
		if g.EdgeLabelCount(graph.LabelID(l)) > 0 {
			el = g.LabelName(graph.LabelID(l))
			break
		}
	}
	w := pattern.Wildcard
	p1 := pattern.SingleEdge(w, el, w)
	p2 := pattern.SingleEdge(w, w, w)
	return []struct {
		parent *pattern.Pattern
		child  *pattern.Pattern
	}{
		{p1, p1.ExtendNewNode(1, el, w, true)},
		{p1, p1.ExtendNewNode(0, w, w, false)},
		{p2, p2.ExtendNewNode(1, el, w, true)},
		{p1, p1.ExtendClosingEdge(1, 0, w)},
		{p2, p2.ExtendClosingEdge(1, 0, el)},
	}
}

// testBatch is one (worker, parent) unit of a level: a parent pattern and
// several of its children, shipped together in one extend call.
type testBatch struct {
	parent   *pattern.Pattern
	children []*pattern.Pattern
}

// testBatches groups testChildren by parent into batches, each child
// list followed by its reverse so a batch also repeats children: six
// children (new-node both ways and a wildcard closing edge) over a
// concrete-label parent, four over a wildcard one.
func testBatches(g *graph.Graph) []testBatch {
	var out []testBatch
	for _, tc := range testChildren(g) {
		k := slices.IndexFunc(out, func(b testBatch) bool { return b.parent == tc.parent })
		if k < 0 {
			k = len(out)
			out = append(out, testBatch{parent: tc.parent})
		}
		out[k].children = append(out[k].children, tc.child)
	}
	for i := range out {
		rev := slices.Clone(out[i].children)
		slices.Reverse(rev)
		out[i].children = append(out[i].children, rev...)
	}
	return out
}

// localShare computes one child's share on the local kernel, as a
// one-child batch.
func localShare(g graph.View, t *match.Table, child *pattern.Pattern) match.IndexedExt {
	return match.ExtendIndexedBatch(g, t, []*pattern.Pattern{child})[0]
}

// extendOne runs one child through the fragment as a one-child batch.
func extendOne(rf *RemoteFragment, t *match.Table, child *pattern.Pattern) match.IndexedExt {
	return rf.ExtendIndexed(t, []*pattern.Pattern{child})[0]
}

// sameTable reports byte-identical tables: same shape, same cell in
// every (row, var) position.
func sameTable(a, b *match.Table) bool {
	if a.Len() != b.Len() || a.NumVars() != b.NumVars() {
		return false
	}
	for r := 0; r < a.Len(); r++ {
		for v := 0; v < a.NumVars(); v++ {
			if a.At(r, v) != b.At(r, v) {
				return false
			}
		}
	}
	return true
}

func dialTest(t *testing.T, addr string, base graph.View, opts Options) *RemoteFragment {
	t.Helper()
	if opts.Backoff.Attempts == 0 {
		opts.Backoff = testBackoff()
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 2 * time.Second
	}
	rf, err := Dial(context.Background(), addr, base, opts)
	if err != nil {
		t.Fatalf("Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { rf.Close() })
	return rf
}

func sameExt(a, b match.IndexedExt) bool {
	if len(a.ParentRows) != len(b.ParentRows) || (a.NewCol == nil) != (b.NewCol == nil) {
		return false
	}
	for i := range a.ParentRows {
		if a.ParentRows[i] != b.ParentRows[i] {
			return false
		}
	}
	for i := range a.NewCol {
		if a.NewCol[i] != b.NewCol[i] {
			return false
		}
	}
	return true
}

// TestRemoteExtendMatchesLocal: the wire round-trip of the indexed join
// must reproduce the local computation bit for bit, for every child
// shape, and the handshake must carry the fragment's true identity.
func TestRemoteExtendMatchesLocal(t *testing.T) {
	g := dataset.DBpediaSim(200, 42)
	dir := spillGraph(t, g, 3)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	addr, _ := startServer(t, fragPath, ServerOptions{})

	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	rf := dialTest(t, addr, g, Options{})
	fi, _ := local.Fragment()
	if rf.Info() != fi {
		t.Fatalf("handshake fragment info %+v, want %+v", rf.Info(), fi)
	}
	if rf.NumEdges() != local.NumEdges() {
		t.Fatalf("NumEdges %d, want %d", rf.NumEdges(), local.NumEdges())
	}
	for l := 0; l <= g.NumLabels(); l++ {
		id := graph.LabelID(l)
		if l == g.NumLabels() {
			id = graph.NoLabel
		}
		if rf.EdgeLabelCount(id) != local.EdgeLabelCount(id) {
			t.Fatalf("EdgeLabelCount(%d) = %d, want %d", id, rf.EdgeLabelCount(id), local.EdgeLabelCount(id))
		}
	}

	for i, tc := range testChildren(g) {
		base := match.EdgeMatches(g, tc.parent, nil)
		want := localShare(local, base, tc.child)
		got := extendOne(rf, base, tc.child)
		if !sameExt(want, got) {
			t.Fatalf("case %d: remote share diverged: got %d rows, want %d", i, len(got.ParentRows), len(want.ParentRows))
		}
	}
	if rf.TakeTransferred() == 0 {
		t.Fatal("no wire bytes accounted")
	}
	if rf.TakeTransferred() != 0 {
		t.Fatal("TakeTransferred did not drain")
	}
	if rf.FailedOver() {
		t.Fatal("healthy run reported failover")
	}
}

// TestRemoteMergeByteIdentical: ExtendRowsViewsBatch over a mix of
// remote and local fragment views must equal the all-local per-child
// tables row for row — the distributed join is invisible to the miner.
// Each batch, an empty parent part included, costs the server exactly
// one frame, and the tables stay identical after the server dies and
// the batches are computed from the spill file.
func TestRemoteMergeByteIdentical(t *testing.T) {
	g := dataset.YAGO2Sim(150, 9)
	dir := spillGraph(t, g, 3)
	att, err := parallel.Attach(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Close()

	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	addr, srv := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, att.Graph, Options{CallTimeout: 200 * time.Millisecond, FallbackPath: fragPath})

	localViews := []graph.View{att.Frags[0].Sub, att.Frags[1].Sub, att.Frags[2].Sub}
	mixed := []graph.View{att.Frags[0].Sub, rf, att.Frags[2].Sub}

	check := func(stage string, frames int64) {
		t.Helper()
		for i, b := range testBatches(g) {
			full := match.EdgeMatches(att.Graph, b.parent, nil)
			for _, base := range []*match.Table{full, match.NewTable(b.parent)} {
				served := srv.Served()
				got := match.ExtendRowsViewsBatch(mixed, base, b.children)
				if d := srv.Served() - served; d != frames {
					t.Fatalf("%s: batch %d (%d children, %d rows) cost %d frames, want %d", stage, i, len(b.children), base.Len(), d, frames)
				}
				for j, child := range b.children {
					if want := match.ExtendRowsViews(localViews, base, child); !sameTable(want, got[j]) {
						t.Fatalf("%s: batch %d child %d (%d parent rows): got %dx%d, want %dx%d or different rows",
							stage, i, j, base.Len(), got[j].Len(), got[j].NumVars(), want.Len(), want.NumVars())
					}
				}
			}
		}
	}
	check("over the wire", 1)
	if rf.FailedOver() {
		t.Fatal("healthy server failed over")
	}
	srv.Close()
	check("after failover", 0)
	if !rf.FailedOver() {
		t.Fatal("dead server did not trigger failover")
	}
}

// TestRetiredMessageTypes: the per-child extend messages of earlier
// versions (types 5 and 6) are unknown to the server. A peer still
// speaking them gets an application error frame echoing its tag — a
// clean refusal, never a misparse as a batch.
func TestRetiredMessageTypes(t *testing.T) {
	g := dataset.DBpediaSim(80, 4)
	dir := spillGraph(t, g, 2)
	addr, _ := startServer(t, filepath.Join(dir, parallel.FragmentSnapshotName(0)), ServerOptions{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := testChildren(g)[0]
	payload := encodeExtend(match.EdgeMatches(g, tc.parent, nil), []*pattern.Pattern{tc.child})
	for tag, typ := range []uint32{5, 6} {
		if _, err := writeFrame(c, typ, uint32(tag), payload); err != nil {
			t.Fatal(err)
		}
		rt, rtag, resp, _, err := readFrame(c)
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		r := rbuf{b: resp}
		if msg := r.str(); rt != msgError || rtag != uint32(tag) || !strings.Contains(msg, "unknown message type") {
			t.Fatalf("type %d: response type %d tag %d %q, want msgError %q for tag %d", typ, rt, rtag, msg, "unknown message type", tag)
		}
	}
}

// TestServerRejectsMalformedBatch: a batch whose children ExtendIndexed
// cannot run — a new-node child whose last edge loops on the new
// variable, children of different parents, a child that adds two
// variables — gets an application error frame, and the server keeps
// serving: a valid batch on the same connection still succeeds.
func TestServerRejectsMalformedBatch(t *testing.T) {
	g := dataset.DBpediaSim(80, 4)
	dir := spillGraph(t, g, 2)
	addr, _ := startServer(t, filepath.Join(dir, parallel.FragmentSnapshotName(0)), ServerOptions{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := testBatches(g)[0]
	base := match.EdgeMatches(g, b.parent, nil)
	w := pattern.Wildcard
	loop := b.parent.ExtendNewNode(0, w, w, true)
	loop.Edges[len(loop.Edges)-1] = pattern.Edge{Src: 2, Dst: 2, Label: w}
	grand := b.children[0].ExtendNewNode(0, w, w, true)
	batches := [][]*pattern.Pattern{{loop}, {b.children[0], grand}, {grand}, b.children}
	for i, children := range batches {
		if _, err := writeFrame(c, msgExtendBatch, uint32(i), encodeExtend(base, children)); err != nil {
			t.Fatal(err)
		}
		typ, _, _, _, err := readFrame(c)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		want := msgError
		if i == len(batches)-1 {
			want = msgExtendBatchOK
		}
		if typ != want {
			t.Fatalf("batch %d: response type %d, want %d", i, typ, want)
		}
	}
}

// TestMisshapenBatchResponseFailsOver: a server answering a batch with
// the wrong number of shares, or with a share not shaped like its child,
// is refused by the client — the batch fails over to the spill file and
// still returns the exact local shares.
func TestMisshapenBatchResponseFailsOver(t *testing.T) {
	g := dataset.DBpediaSim(120, 7)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	honest, err := NewServer(local, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func([]match.IndexedExt) []match.IndexedExt{
		"short":       func(exts []match.IndexedExt) []match.IndexedExt { return exts[:len(exts)-1] },
		"new column":  func(exts []match.IndexedExt) []match.IndexedExt { exts[0].NewCol = []graph.NodeID{}; return exts },
		"no bindings": func(exts []match.IndexedExt) []match.IndexedExt { exts[1].NewCol = nil; return exts },
	} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			// A server that answers hello honestly and spoils every batch.
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				for {
					typ, tag, payload, _, err := readFrame(c)
					if err != nil {
						return
					}
					resp, respType := honest.hello(), msgHelloOK
					if typ == msgExtendBatch {
						tb, children, err := decodeExtend(payload)
						if err != nil {
							return
						}
						resp, respType = encodeExtendOK(spoil(match.ExtendIndexedBatch(local, tb, children))), msgExtendBatchOK
					}
					if _, err := writeFrame(c, respType, tag, resp); err != nil {
						return
					}
				}
			}()
			rf := dialTest(t, l.Addr().String(), g, Options{FallbackPath: fragPath})
			// A closing-edge child first, then new-node children.
			w := pattern.Wildcard
			p := pattern.SingleEdge(w, w, w)
			children := []*pattern.Pattern{p.ExtendClosingEdge(1, 0, w), p.ExtendNewNode(1, w, w, true), p.ExtendNewNode(0, w, w, false)}
			base := match.EdgeMatches(g, p, nil)
			got := rf.ExtendIndexed(base, children)
			for i, child := range children {
				if !sameExt(localShare(local, base, child), got[i]) {
					t.Fatalf("child %d: share diverged from local", i)
				}
			}
			if !rf.FailedOver() {
				t.Fatal("a misshapen batch response was accepted")
			}
		})
	}
}

// TestRemotePerEdgeSurface: per-edge View methods are answered from one
// bulk section fetch, never per-edge RPCs, and agree with the local
// mapping of the same fragment.
func TestRemotePerEdgeSurface(t *testing.T) {
	g := dataset.DBpediaSim(120, 5)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	addr, srv := startServer(t, fragPath, ServerOptions{})
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	rf := dialTest(t, addr, g, Options{})
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		llo, lhi := local.OutRuns(id)
		rlo, rhi := rf.OutRuns(id)
		if llo != rlo || lhi != rhi {
			t.Fatalf("OutRuns(%d) = (%d,%d), want (%d,%d)", v, rlo, rhi, llo, lhi)
		}
		for r := llo; r < lhi; r++ {
			if local.OutRunLabel(r) != rf.OutRunLabel(r) {
				t.Fatalf("OutRunLabel(%d) diverged", r)
			}
			ln, rn := local.OutRunNodes(r), rf.OutRunNodes(r)
			if len(ln) != len(rn) {
				t.Fatalf("OutRunNodes(%d) length diverged", r)
			}
			for i := range ln {
				if ln[i] != rn[i] {
					t.Fatalf("OutRunNodes(%d)[%d] diverged", r, i)
				}
			}
		}
	}
	served := srv.Served()
	// The whole per-edge walk must have cost a constant number of frames
	// (hello + one sections fetch), not one per lookup.
	if served > 4 {
		t.Fatalf("per-edge surface cost %d frames; the replica is not being used", served)
	}
}

// TestDialRejectsWrongGraph: a fragment of a different graph must be
// refused at handshake (content fingerprint), even when all counts would
// pass a size check.
func TestDialRejectsWrongGraph(t *testing.T) {
	g := dataset.DBpediaSim(100, 1)
	other := dataset.DBpediaSim(100, 2)
	dir := spillGraph(t, other, 2)
	addr, _ := startServer(t, filepath.Join(dir, parallel.FragmentSnapshotName(0)), ServerOptions{})

	_, err := Dial(context.Background(), addr, g, Options{Backoff: testBackoff(), CallTimeout: time.Second})
	if err == nil || !strings.Contains(err.Error(), "disagrees") && !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("dial against wrong graph: err = %v, want node-store mismatch", err)
	}
}

// TestFaultInjectionStillCorrect: under dropped, corrupted and forcibly
// closed frames the client's deadline/retry/redial machinery must still
// produce the exact local share — faults cost time, never correctness.
func TestFaultInjectionStillCorrect(t *testing.T) {
	g := dataset.DBpediaSim(150, 8)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	specs := []FaultSpec{
		{Drop: 0.25, Seed: 7},
		{Corrupt: 0.4, Seed: 3},
		{CloseAfter: 3, Seed: 1},
		{Drop: 0.15, Corrupt: 0.15, CloseAfter: 5, Seed: 11},
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			addr, _ := startServer(t, fragPath, ServerOptions{Fault: spec})
			rf := dialTest(t, addr, g, Options{
				CallTimeout: 150 * time.Millisecond,
				Backoff:     Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 12},
			})
			for i, tc := range testChildren(g) {
				base := match.EdgeMatches(g, tc.parent, nil)
				want := localShare(local, base, tc.child)
				got := extendOne(rf, base, tc.child)
				if !sameExt(want, got) {
					t.Fatalf("case %d under %s: share diverged", i, spec)
				}
			}
			if rf.FailedOver() {
				t.Fatalf("faults under %s escalated to failover; retries should have absorbed them", spec)
			}
		})
	}
}

// TestFailoverToSpillFile: a server killed mid-run must be survived by
// re-attaching the worker's spill file; the share comes back identical
// and the fragment reports the failover.
func TestFailoverToSpillFile(t *testing.T) {
	g := dataset.YAGO2Sim(120, 4)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, srv := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{
		CallTimeout:  100 * time.Millisecond,
		FallbackPath: fragPath,
	})

	cases := testChildren(g)
	base0 := match.EdgeMatches(g, cases[0].parent, nil)
	if !sameExt(localShare(local, base0, cases[0].child), extendOne(rf, base0, cases[0].child)) {
		t.Fatal("pre-kill share diverged")
	}
	if rf.Healthy(context.Background()) != nil {
		t.Fatal("healthy server reported unhealthy")
	}

	srv.Close() // the worker dies mid-mine

	for i, tc := range cases {
		base := match.EdgeMatches(g, tc.parent, nil)
		want := localShare(local, base, tc.child)
		got := extendOne(rf, base, tc.child)
		if !sameExt(want, got) {
			t.Fatalf("case %d after kill: share diverged", i)
		}
	}
	if !rf.FailedOver() {
		t.Fatal("dead server did not trigger failover")
	}
	if err := rf.Healthy(context.Background()); err == nil {
		t.Fatal("dead server reported healthy")
	}
	// Per-edge surface keeps working from the re-attached mapping.
	if rf.NumEdges() != local.NumEdges() {
		t.Fatal("NumEdges diverged after failover")
	}
	lo, hi := local.OutRuns(1)
	rlo, rhi := rf.OutRuns(1)
	if lo != rlo || hi != rhi {
		t.Fatal("OutRuns diverged after failover")
	}
}

// TestDeclaredDeadOnce: concurrent extends against a killed server all
// land on the local attach, but the death is logged (and counted) once —
// calls that were mid-ladder when a sibling declared the fragment dead
// stop retrying instead of running their own ladders to the end.
func TestDeclaredDeadOnce(t *testing.T) {
	g := dataset.YAGO2Sim(120, 4)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	var mu sync.Mutex
	var dead int
	addr, srv := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{
		CallTimeout:  100 * time.Millisecond,
		Backoff:      Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 8},
		FallbackPath: fragPath,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if strings.Contains(line, "declared dead") {
				mu.Lock()
				dead++
				mu.Unlock()
			}
		},
	})
	srv.Close()

	cases := testChildren(g)
	const callers = 8
	failovers := mFailovers.Value()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tc := range cases {
				base := match.EdgeMatches(g, tc.parent, nil)
				if !sameExt(localShare(local, base, tc.child), extendOne(rf, base, tc.child)) {
					errs <- fmt.Errorf("case %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !rf.FailedOver() {
		t.Fatal("dead server did not trigger failover")
	}
	mu.Lock()
	defer mu.Unlock()
	if dead != 1 {
		t.Fatalf("%d \"declared dead\" lines for one dead server, want 1", dead)
	}
	if n := mFailovers.Value() - failovers; n != 1 {
		t.Fatalf("%d failovers counted for one dead server, want 1", n)
	}
	// A call still on the ladder when the fragment is latched dead stops
	// at its next attempt, without touching the wire.
	calls := mRPCCalls.Value()
	if _, _, err := rf.call(msgPing, nil); err == nil || !strings.Contains(err.Error(), "already declared dead") {
		t.Fatalf("call on a latched-dead fragment: err = %v, want the dead latch", err)
	}
	if n := mRPCCalls.Value() - calls; n != 0 {
		t.Fatalf("call on a latched-dead fragment made %d wire attempts", n)
	}
}

// TestDeadlineOnStalledServer: a server that accepts but never answers
// must cost CallTimeout per attempt, not a hang; with a fallback the
// call degrades to local.
func TestDeadlineOnStalledServer(t *testing.T) {
	g := dataset.DBpediaSim(80, 3)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	// A black hole: accepts connections, reads forever, never writes.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	start := time.Now()
	_, err = Dial(context.Background(), l.Addr().String(), g, Options{
		CallTimeout: 50 * time.Millisecond,
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 2, Jitter: 0, Attempts: 2},
	})
	if err == nil {
		t.Fatal("dial against a stalled server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled dial took %s; deadlines are not being applied", elapsed)
	}
	_ = local
}

// TestFailoverWithoutFallbackPanics: with no recovery unit configured the
// run must stop loudly — wrong mining output is not an acceptable
// degradation.
func TestFailoverWithoutFallbackPanics(t *testing.T) {
	g := dataset.DBpediaSim(80, 6)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	addr, srv := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{CallTimeout: 50 * time.Millisecond})
	srv.Close()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("dead server without fallback did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "FallbackPath") {
			t.Fatalf("panic does not explain the remedy: %v", r)
		}
	}()
	tc := testChildren(g)[0]
	extendOne(rf, match.EdgeMatches(g, tc.parent, nil), tc.child)
}

// TestServerDieAfter: the deterministic mid-run death used by the
// process-level golden tests — the server drops dead after N frames and
// the client fails over.
func TestServerDieAfter(t *testing.T) {
	g := dataset.YAGO2Sim(100, 2)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, _ := startServer(t, fragPath, ServerOptions{DieAfter: 3})
	rf := dialTest(t, addr, g, Options{CallTimeout: 100 * time.Millisecond, FallbackPath: fragPath})

	cases := testChildren(g)
	for round := 0; round < 3; round++ {
		for i, tc := range cases {
			base := match.EdgeMatches(g, tc.parent, nil)
			want := localShare(local, base, tc.child)
			got := extendOne(rf, base, tc.child)
			if !sameExt(want, got) {
				t.Fatalf("round %d case %d: share diverged across server death", round, i)
			}
		}
	}
	if !rf.FailedOver() {
		t.Fatal("DieAfter server did not trigger failover")
	}
}

// TestConcurrentExtends: concurrent supersteps share one fragment client
// and pipeline over its multiplexed connection; out-of-order completions
// must stay correct under the race detector.
func TestConcurrentExtends(t *testing.T) {
	g := dataset.DBpediaSim(120, 9)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, _ := startServer(t, fragPath, ServerOptions{})
	rf := dialTest(t, addr, g, Options{})

	cases := testChildren(g)
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tc := range cases {
				base := match.EdgeMatches(g, tc.parent, nil)
				want := localShare(local, base, tc.child)
				got := extendOne(rf, base, tc.child)
				if !sameExt(want, got) {
					errs <- fmt.Errorf("case %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParseFaultSpec locks the CLI syntax.
func TestParseFaultSpec(t *testing.T) {
	f, err := ParseFaultSpec("drop=0.05,corrupt=0.01,delay=2ms,closeafter=20,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{Drop: 0.05, Corrupt: 0.01, Delay: 2 * time.Millisecond, CloseAfter: 20, Seed: 9}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	if _, err := ParseFaultSpec("drop=2"); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	if _, err := ParseFaultSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if f, err := ParseFaultSpec(""); err != nil || f.Active() {
		t.Fatalf("empty spec: (%+v, %v)", f, err)
	}
}
