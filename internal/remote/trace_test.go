package remote

// Trace tests for the distributed runtime: tracing on must leave the
// golden mining output byte-identical through hedge races and mid-run
// member adoption, and the span log must stay structurally sound under
// the concurrency both paths generate (the CI race job runs these under
// -race).

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// checkSpanLog parses a tracer buffer and enforces the integrity
// invariants: unique IDs, every parent referring to an earlier span.
// Returns the per-name span counts.
func checkSpanLog(t *testing.T, buf *strings.Builder) map[string][]obs.SpanRecord {
	t.Helper()
	spans, err := obs.ReadSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d (%q)", s.ID, s.Name)
		}
		ids[s.ID] = true
	}
	byName := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d (%q) parented to unknown span %d", s.ID, s.Name, s.Parent)
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d (%q) parented to later span %d", s.ID, s.Name, s.Parent)
		}
	}
	return byName
}

// TestHedgeTraceIntegrity: the hedged golden run with tracing enabled.
// Hedge-race outcome events are written from racing goroutines while
// the engine switches superstep scopes; the output must stay golden and
// every hedge the engine accounted must appear as a hedge-race event
// with a winner attribute.
func TestHedgeTraceIntegrity(t *testing.T) {
	g, want := loadGolden(t)
	dir := t.TempDir()
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, 3)); err != nil {
		t.Fatal(err)
	}
	att, err := parallel.Attach(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Close()

	var buf strings.Builder
	tr := obs.NewTracer(&buf)
	frags, clients := mixFragments(t, dir, att, map[int]bool{1: true},
		ServerOptions{Fault: FaultSpec{Delay: 10 * time.Millisecond, Seed: 1}},
		Options{
			HedgeAfter:   time.Millisecond,
			FallbackPath: filepath.Join(dir, parallel.FragmentSnapshotName(1)),
			Trace:        tr,
		})

	eng := cluster.New(cluster.Config{Workers: 3, Trace: tr})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("traced hedged mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	st := eng.Stats()
	if st.HedgesFired == 0 {
		t.Fatal("a 10ms link with a 1ms hedge delay never fired a hedge")
	}
	if clients[0].FailedOver() {
		t.Fatal("hedging failed a live (slow) server over")
	}

	byName := checkSpanLog(t, &buf)
	races := byName["hedge-race"]
	if int64(len(races)) != st.HedgesFired {
		t.Fatalf("%d hedge-race events for %d fired hedges (lost or duplicated events)", len(races), st.HedgesFired)
	}
	wonLocal := int64(0)
	for _, r := range races {
		switch r.Attrs["winner"] {
		case "local":
			wonLocal++
		case "remote":
		default:
			t.Fatalf("hedge-race event with winner %q", r.Attrs["winner"])
		}
	}
	if wonLocal != st.HedgesWon {
		t.Fatalf("%d local-winner events for %d hedges won", wonLocal, st.HedgesWon)
	}
	if len(byName["share"]) == 0 || len(byName["superstep"]) == 0 {
		t.Fatalf("expected share and superstep spans, got %v", spanNames(byName))
	}
	// A share span times one extend batch and says how many children it
	// carried.
	for _, sp := range byName["share"] {
		if n, err := strconv.Atoi(sp.Attrs["children"]); err != nil || n < 1 {
			t.Fatalf("share span %d has children attribute %q, want a count >= 1", sp.ID, sp.Attrs["children"])
		}
	}
}

// TestAdoptTraceEvent: a member announcing mid-run is adopted at a
// superstep boundary; the adoption must surface as an adopt event with
// the worker and address attrs, the output staying golden.
func TestAdoptTraceEvent(t *testing.T) {
	g, want := loadGolden(t)
	dir := t.TempDir()
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, 3)); err != nil {
		t.Fatal(err)
	}
	att, err := parallel.Attach(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Close()
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))

	addr, _ := startServer(t, fragPath, ServerOptions{})
	reg := cluster.NewRegistry()

	var buf strings.Builder
	tr := obs.NewTracer(&buf)
	rf, err := NewLocalFragment(context.Background(), att.Graph, fragPath, Options{
		Backoff:     testBackoff(),
		CallTimeout: 2 * time.Second,
		Trace:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()

	bal := NewBalancer(reg, nil, t.Logf)
	bal.Manage(rf, "")
	join := &joinAtBoundary{bal: bal, at: 3, fire: func() {
		if _, err := reg.Announce(1, addr, reg.Epoch()); err != nil {
			t.Errorf("mid-run announce: %v", err)
		}
	}}

	frags := make([]parallel.Fragment, len(att.Frags))
	copy(frags, att.Frags)
	frags[1].Sub = rf

	eng := cluster.New(cluster.Config{Workers: 3, Trace: tr})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng,
		parallel.Options{LoadBalance: true, Membership: join})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("traced member-join mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if bal.Adoptions() != 1 {
		t.Fatalf("%d adoptions, want 1", bal.Adoptions())
	}

	byName := checkSpanLog(t, &buf)
	adopts := byName["adopt"]
	if len(adopts) != 1 {
		t.Fatalf("%d adopt events for 1 adoption", len(adopts))
	}
	if adopts[0].Attrs["worker"] != "1" || adopts[0].Attrs["addr"] != addr {
		t.Fatalf("adopt event attrs = %v, want worker=1 addr=%s", adopts[0].Attrs, addr)
	}
}

func spanNames(byName map[string][]obs.SpanRecord) []string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	return names
}
