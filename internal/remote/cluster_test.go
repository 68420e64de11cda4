package remote

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/store"
)

// startRegistry serves a cluster map over the frame protocol on
// loopback and returns its address.
func startRegistry(t *testing.T, reg *cluster.Registry, opts RegistryServerOptions) string {
	t.Helper()
	rs := NewRegistryServer(reg, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rs.Serve(l)
	t.Cleanup(func() { rs.Close() })
	return l.Addr().String()
}

// announceFrag reads a spilled fragment's identity into an AnnounceInfo
// as gfdfrag -announce does.
func announceFrag(t testing.TB, fragPath, addr string, epoch uint64) AnnounceInfo {
	t.Helper()
	m, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fi, has := m.Fragment()
	if !has {
		t.Fatalf("%s carries no fragment metadata", fragPath)
	}
	return AnnounceInfo{
		Worker:      fi.Worker,
		Addr:        addr,
		NodeLo:      fi.NodeLo,
		NodeHi:      fi.NodeHi,
		NumEdges:    m.NumEdges(),
		Fingerprint: Fingerprint(m),
		Epoch:       epoch,
	}
}

// TestAnnounceWire: the announce round trip over the real frame
// protocol — info survives the codec, epochs come back, and a
// future-epoch claim or a Validate rejection is refused as fatal (no
// retry storm).
func TestAnnounceWire(t *testing.T) {
	g := dataset.DBpediaSim(120, 42)
	dir := spillGraph(t, g, 3)
	frag1 := filepath.Join(dir, parallel.FragmentSnapshotName(1))

	reg := cluster.NewRegistry()
	var logMu sync.Mutex
	var refused int
	addr := startRegistry(t, reg, RegistryServerOptions{
		Validate: func(a AnnounceInfo) error {
			if a.Worker == 2 {
				return fmt.Errorf("slot 2 is blocked for the test")
			}
			return nil
		},
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "refused") {
				logMu.Lock()
				refused++
				logMu.Unlock()
			}
		},
	})

	opts := Options{Backoff: testBackoff(), CallTimeout: 2 * time.Second}
	info := announceFrag(t, frag1, "127.0.0.1:9999", 0)
	epoch, err := Announce(context.Background(), addr, info, opts)
	if err != nil || epoch != 1 {
		t.Fatalf("announce: epoch %d err %v, want 1/nil", epoch, err)
	}
	if m, ok := reg.Member(int(info.Worker)); !ok || m.Addr != "127.0.0.1:9999" {
		t.Fatalf("member %d = %+v ok=%v", info.Worker, m, ok)
	}

	// Future epoch: a stale deployment talking to a fresh registry.
	bad := info
	bad.Epoch = 40
	if _, err := Announce(context.Background(), addr, bad, opts); err == nil {
		t.Fatal("future-epoch announce was admitted")
	} else if !strings.Contains(err.Error(), "refused") {
		t.Fatalf("future-epoch announce failed with %v, want a registry refusal", err)
	}

	// Validate rejection: wrong worker slot.
	bad = info
	bad.Worker = 2
	if _, err := Announce(context.Background(), addr, bad, opts); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("blocked-slot announce: err %v, want a registry refusal", err)
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d after refusals, want 1", reg.Size())
	}
	logMu.Lock()
	if refused != 2 {
		t.Fatalf("%d refusal log lines, want 2", refused)
	}
	logMu.Unlock()

	// The registry endpoint also echoes pings, so announcers can
	// health-check it with the ordinary probe.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := writeFrame(c, msgPing, 7, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	typ, tag, payload, _, err := readFrame(c)
	if err != nil || typ != msgPong || tag != 7 || string(payload) != "abcd" {
		t.Fatalf("registry ping echo: typ=%d tag=%d payload=%q err=%v", typ, tag, payload, err)
	}
}

// TestHedgedShareIdentical: behind a latency link every batch hedges,
// the local replica wins, and every child's rows are bit-identical to
// the local computation — with the server still alive and the fragment
// never failed over. A hedge races the whole batch: one hedge per call,
// however many children it carries.
func TestHedgedShareIdentical(t *testing.T) {
	g := dataset.DBpediaSim(200, 42)
	dir := spillGraph(t, g, 3)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	addr, _ := startServer(t, fragPath, ServerOptions{Fault: FaultSpec{Delay: 30 * time.Millisecond, Seed: 1}})

	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	rf := dialTest(t, addr, g, Options{
		FallbackPath: fragPath,
		HedgeAfter:   2 * time.Millisecond,
	})
	batches := testBatches(g)
	for i, b := range batches {
		base := match.EdgeMatches(g, b.parent, nil)
		got := rf.ExtendIndexed(base, b.children)
		if len(got) != len(b.children) {
			t.Fatalf("batch %d: %d shares for %d children", i, len(got), len(b.children))
		}
		for j, child := range b.children {
			if !sameExt(localShare(local, base, child), got[j]) {
				t.Fatalf("batch %d child %d: hedged share diverged from local", i, j)
			}
		}
	}
	fired, won := rf.TakeHedges()
	if fired == 0 {
		t.Fatal("30ms link with a 2ms hedge delay never fired a hedge")
	}
	if fired > int64(len(batches)) {
		t.Fatalf("%d hedges fired for %d batches: a hedge must race a whole batch", fired, len(batches))
	}
	if won == 0 {
		t.Fatal("local replica never won against a 30ms link")
	}
	if rf.FailedOver() {
		t.Fatal("hedging failed the fragment over; the server is alive")
	}
	if f2, _ := rf.TakeHedges(); f2 != 0 {
		t.Fatalf("TakeHedges did not drain: %d left", f2)
	}
}

// TestHedgeRace: hedge delay ≈ link latency, so the wire and the local
// replica genuinely race and either may win. Many concurrent shares
// under the race detector exercise the loser-discard path; every
// result must match the local reference regardless of winner.
func TestHedgeRace(t *testing.T) {
	g := dataset.DBpediaSim(200, 42)
	dir := spillGraph(t, g, 3)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	addr, _ := startServer(t, fragPath, ServerOptions{Fault: FaultSpec{Delay: 2 * time.Millisecond, Seed: 7}})

	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	rf := dialTest(t, addr, g, Options{
		FallbackPath: fragPath,
		HedgeAfter:   2 * time.Millisecond,
	})
	cases := testChildren(g)
	parents := make([]*match.Table, len(cases))
	wants := make([]match.IndexedExt, len(cases))
	for i, tc := range cases {
		parents[i] = match.EdgeMatches(g, tc.parent, nil)
		wants[i] = localShare(local, parents[i], tc.child)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for round := 0; round < 10; round++ {
		for i := range cases {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got := extendOne(rf, parents[i], cases[i].child)
				if !sameExt(wants[i], got) {
					select {
					case errs <- fmt.Errorf("case %d diverged", i):
					default:
					}
				}
			}(i)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if rf.FailedOver() {
		t.Fatal("racing hedges failed the fragment over; the server is alive")
	}
}

// stepClock releases one monitor probe iteration per step call, making
// the heartbeat cadence fully deterministic under test.
type stepClock struct{ ch chan struct{} }

func newStepClock() *stepClock { return &stepClock{ch: make(chan struct{})} }

func (c *stepClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.ch:
		return nil
	}
}

func (c *stepClock) step(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case c.ch <- struct{}{}:
		case <-time.After(5 * time.Second):
			t.Fatal("monitor stopped consuming clock steps")
		}
	}
}

// TestMonitorTransitions drives the full ladder against a real server:
// healthy while it answers, suspect after the first missed heartbeat,
// dead (failed over, reported up) after the second, healthy again once
// the restarted server is adopted, as the balancer does when it
// re-announces.
func TestMonitorTransitions(t *testing.T) {
	g := dataset.DBpediaSim(120, 42)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(1))

	m, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := NewServer(m, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	addr := l.Addr().String()

	// The fragment's own retries run on the real clock; only the monitor
	// cadence is stepped.
	rf := dialTest(t, addr, g, Options{
		CallTimeout:  100 * time.Millisecond,
		FallbackPath: fragPath,
	})
	sc := newStepClock()
	var deadMu sync.Mutex
	var deadWorkers []int
	mon := NewMonitor(context.Background(), MonitorOptions{
		Interval: 100 * time.Millisecond, // bounds each ping; the cadence is stepped
		Clock:    sc,
		Health:   cluster.HealthConfig{SuspectMisses: 1, DeadMisses: 2},
		OnDead: func(w int, _ *RemoteFragment) {
			deadMu.Lock()
			deadWorkers = append(deadWorkers, w)
			deadMu.Unlock()
		},
	})
	defer mon.Close()
	mon.Watch(rf)
	w := rf.Info().Worker

	waitState := func(want cluster.HealthState, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for mon.State(w) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: state %v, want %v", what, mon.State(w), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCond := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	sc.step(t, 1)
	waitState(cluster.Healthy, "after one clean probe")
	if rf.Suspect() {
		t.Fatal("healthy member marked suspect")
	}

	// Kill the server: first miss → suspect, second → dead + failover.
	s.Close()
	sc.step(t, 1)
	waitState(cluster.Suspect, "after one missed heartbeat")
	waitCond(rf.Suspect, "suspect verdict never reached the fragment")
	sc.step(t, 1)
	waitState(cluster.Dead, "after two missed heartbeats")
	waitCond(rf.FailedOver, "dead verdict never failed the fragment over")
	deadMu.Lock()
	if len(deadWorkers) != 1 || deadWorkers[0] != w {
		t.Fatalf("OnDead fired for %v, want [%d]", deadWorkers, w)
	}
	deadMu.Unlock()

	// Restart the server on the same address and adopt it.
	s2, err := NewServer(m, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for i := 0; i < 100; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	go s2.Serve(l2)
	t.Cleanup(func() { s2.Close() })

	if err := rf.Adopt(addr); err != nil {
		t.Fatalf("adopting the restarted server: %v", err)
	}
	if rf.FailedOver() || !rf.Rejoined() {
		t.Fatalf("adoption did not resume remote serving: failedOver=%v rejoined=%v", rf.FailedOver(), rf.Rejoined())
	}
	// The monitor folds the rejoin back in on its next ticks.
	deadline := time.Now().Add(10 * time.Second)
	for mon.State(w) != cluster.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never observed the rejoin: state %v", mon.State(w))
		}
		sc.step(t, 1)
		time.Sleep(time.Millisecond)
	}
	if rf.Suspect() {
		t.Fatal("rejoined member left marked suspect")
	}
}

// TestAdoptValidation: a deferred local fragment serves correct shares
// with no server at all, refuses to adopt a server holding a different
// fragment — another slot of the same cut, or an imposter serving the
// same slot of another graph — and resumes remote serving when the right
// one is adopted.
func TestAdoptValidation(t *testing.T) {
	g := dataset.DBpediaSim(200, 42)
	dir := spillGraph(t, g, 3)
	otherDir := spillGraph(t, dataset.DBpediaSim(200, 43), 3)
	frag1 := filepath.Join(dir, parallel.FragmentSnapshotName(1))
	frag2 := filepath.Join(dir, parallel.FragmentSnapshotName(2))
	wrongAddr, _ := startServer(t, frag2, ServerOptions{})
	imposterAddr, _ := startServer(t, filepath.Join(otherDir, parallel.FragmentSnapshotName(1)), ServerOptions{})
	rightAddr, _ := startServer(t, frag1, ServerOptions{})

	rf, err := NewLocalFragment(context.Background(), g, frag1, Options{
		Backoff:     testBackoff(),
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	if !rf.FailedOver() {
		t.Fatal("deferred local fragment does not report failed over")
	}

	local, err := store.Open(frag1)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	tc := testChildren(g)[0]
	base := match.EdgeMatches(g, tc.parent, nil)
	want := localShare(local, base, tc.child)
	if got := extendOne(rf, base, tc.child); !sameExt(want, got) {
		t.Fatal("pre-adoption local share diverged")
	}

	for _, bad := range []string{wrongAddr, imposterAddr} {
		if err := rf.Adopt(bad); err == nil {
			t.Fatalf("adopted %s, a server holding a different fragment", bad)
		}
		if !rf.FailedOver() || rf.Rejoined() {
			t.Fatalf("failed adoption of %s flipped the fragment remote", bad)
		}
	}
	if err := rf.Adopt(rightAddr); err != nil {
		t.Fatalf("adopting the right server: %v", err)
	}
	if rf.FailedOver() || !rf.Rejoined() {
		t.Fatalf("adoption did not resume remote serving: failedOver=%v rejoined=%v", rf.FailedOver(), rf.Rejoined())
	}
	if got := extendOne(rf, base, tc.child); !sameExt(want, got) {
		t.Fatal("post-adoption share diverged")
	}
}

// joinAtBoundary wraps the balancer's boundary hook: at the n-th
// superstep boundary it fires once (announcing a member into the
// registry, as a gfdfrag -announce arriving mid-run would), then always
// delegates — so the same boundary's reconciliation already sees the
// join.
type joinAtBoundary struct {
	bal  *Balancer
	at   int
	fire func()

	mu    sync.Mutex
	count int
	fired bool
}

func (j *joinAtBoundary) ApplyAtBoundary() {
	j.mu.Lock()
	j.count++
	fire := j.count >= j.at && !j.fired
	if fire {
		j.fired = true
	}
	j.mu.Unlock()
	if fire {
		j.fire()
	}
	j.bal.ApplyAtBoundary()
}

// TestGoldenMiningMemberJoin: mining starts with worker 1 unannounced —
// a deferred local fragment serving from its spill file. Mid-run a
// member announces into the registry, the balancer adopts it at the
// next superstep boundary, and the run finishes over the wire — with
// the output still byte-identical to the golden file.
func TestGoldenMiningMemberJoin(t *testing.T) {
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

	// The server exists from the start but joins (announces) mid-run.
	addr, srv := startServer(t, fragPath, ServerOptions{})
	reg := cluster.NewRegistry()

	rf, err := NewLocalFragment(context.Background(), att.Graph, fragPath, Options{
		Backoff:     testBackoff(),
		CallTimeout: 2 * time.Second,
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

	eng := cluster.New(cluster.Config{Workers: 3})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng,
		parallel.Options{LoadBalance: true, Membership: join})
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("member-join mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !join.fired {
		t.Fatal("the run had fewer boundaries than the join trigger; nothing was tested")
	}
	if bal.Adoptions() != 1 {
		t.Fatalf("%d adoptions, want 1", bal.Adoptions())
	}
	if rf.FailedOver() || !rf.Rejoined() {
		t.Fatalf("slot 1 not serving remotely after the join: failedOver=%v rejoined=%v", rf.FailedOver(), rf.Rejoined())
	}
	if srv.Served() == 0 {
		t.Fatal("the joined member never carried join traffic")
	}
}

// TestGoldenMiningMemberLeave: a registered member dies mid-mine. The
// health monitor walks it healthy → suspect → dead, the fragment fails
// over to its spill file, and the dead member leaves the cluster map —
// with the mining output still byte-identical.
func TestGoldenMiningMemberLeave(t *testing.T) {
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
	frags, clients := mixFragments(t, dir, att, map[int]bool{1: true},
		ServerOptions{DieAfter: 25},
		Options{
			CallTimeout:  200 * time.Millisecond,
			Backoff:      Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 3},
			FallbackPath: filepath.Join(dir, parallel.FragmentSnapshotName(1)),
		})
	rf := clients[0]

	reg := cluster.NewRegistry()
	if _, err := reg.Announce(1, rf.Addr(), 0); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(context.Background(), MonitorOptions{
		Interval: 10 * time.Millisecond,
		Health:   cluster.HealthConfig{SuspectMisses: 1, DeadMisses: 2},
		OnDead: func(w int, _ *RemoteFragment) {
			if _, err := reg.Leave(w, reg.Epoch()); err != nil {
				t.Errorf("leave for worker %d refused: %v", w, err)
			}
		},
	})
	defer mon.Close()
	mon.Watch(rf)

	eng := cluster.New(cluster.Config{Workers: 3})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("member-leave mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !rf.FailedOver() {
		t.Fatal("server died mid-mine but the fragment never failed over")
	}
	// The monitor's dead declaration (and the leave it triggers) may land
	// shortly after the mine finishes; the epoch-bumped departure is the
	// contract.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Size() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead member never left the cluster map (size %d)", reg.Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Epoch() < 2 {
		t.Fatalf("epoch %d after join+leave, want >= 2", reg.Epoch())
	}
}

// TestGoldenMiningHedged: the full golden run over a high-latency link
// with hedged replica reads racing every share against the local spill
// replica. The output must be byte-identical no matter which side wins,
// the engine must account the hedges, and the slow-but-alive server
// must not be failed over.
func TestGoldenMiningHedged(t *testing.T) {
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
	frags, clients := mixFragments(t, dir, att, map[int]bool{1: true},
		ServerOptions{Fault: FaultSpec{Delay: 10 * time.Millisecond, Seed: 1}},
		Options{
			HedgeAfter:   time.Millisecond,
			FallbackPath: filepath.Join(dir, parallel.FragmentSnapshotName(1)),
		})

	eng := cluster.New(cluster.Config{Workers: 3})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("hedged mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	st := eng.Stats()
	if st.HedgesFired == 0 {
		t.Fatal("a 10ms link with a 1ms hedge delay never fired a hedge")
	}
	if st.HedgesWon == 0 {
		t.Fatal("the local replica never won a single hedge against a 10ms link")
	}
	if st.HedgesWon > st.HedgesFired {
		t.Fatalf("hedges won (%d) exceeds hedges fired (%d)", st.HedgesWon, st.HedgesFired)
	}
	if clients[0].FailedOver() {
		t.Fatal("hedging failed a live (slow) server over")
	}
}
