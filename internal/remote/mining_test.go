package remote

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/store"
)

const (
	goldenGraphPath = "../testutil/testdata/golden_graph.tsv"
	goldenGFDsPath  = "../testutil/testdata/golden_gfds.txt"
)

func goldenOptions() discovery.Options {
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

func loadGolden(t *testing.T) (*graph.Graph, string) {
	t.Helper()
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
	return g, string(want)
}

// remoteFrags spills the attached run's fragments behind fragment
// servers for every worker in remoteSet, returning the mixed fragment
// slice plus the dialed clients.
func mixFragments(t *testing.T, dir string, att *parallel.Attached, remoteSet map[int]bool, sopts ServerOptions, copts Options) ([]parallel.Fragment, []*RemoteFragment) {
	t.Helper()
	frags := make([]parallel.Fragment, len(att.Frags))
	copy(frags, att.Frags)
	var clients []*RemoteFragment
	for w := range frags {
		if !remoteSet[w] {
			continue
		}
		fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(w))
		addr, _ := startServer(t, fragPath, sopts)
		rf := dialTest(t, addr, att.Graph, copts)
		frags[w].Sub = rf
		clients = append(clients, rf)
	}
	return frags, clients
}

// TestGoldenMiningRemote: the golden mining run with workers split
// between local mmap views and remote fragment servers must be
// byte-identical to the committed golden output — the distributed
// runtime is invisible to the mining result.
func TestGoldenMiningRemote(t *testing.T) {
	g, want := loadGolden(t)
	for _, tc := range []struct {
		workers int
		remote  map[int]bool
	}{
		{2, map[int]bool{1: true}},
		{4, map[int]bool{1: true, 3: true}},
		{4, map[int]bool{0: true, 1: true, 2: true, 3: true}},
	} {
		name := fmt.Sprintf("n=%d_remote=%d", tc.workers, len(tc.remote))
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := parallel.Spill(dir, g, parallel.VertexCut(g, tc.workers)); err != nil {
				t.Fatal(err)
			}
			att, err := parallel.Attach(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer att.Close()
			frags, clients := mixFragments(t, dir, att, tc.remote, ServerOptions{}, Options{})

			eng := cluster.New(cluster.Config{Workers: tc.workers})
			res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
			if got := canonicalizeResult(res.Result); got != want {
				t.Fatalf("remote mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			// Real wire traffic replaced declared Ship volume for the remote
			// fragments and is visible in the cluster accounting.
			if stats := eng.Stats(); stats.MeasuredBytes == 0 {
				t.Fatal("no measured communication recorded for remote fragments")
			}
			for _, c := range clients {
				if c.FailedOver() {
					t.Fatal("healthy run failed over")
				}
			}
		})
	}
}

// TestGoldenMiningRemoteFaults: the same golden run with an adversarial
// transport — dropped and corrupted frames — still mines the exact
// golden bytes; retries absorb the faults. The run must have retried at
// least once, or no fault was injected and nothing was tested.
func TestGoldenMiningRemoteFaults(t *testing.T) {
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
	frags, _ := mixFragments(t, dir, att, map[int]bool{1: true, 2: true},
		ServerOptions{Fault: FaultSpec{Drop: 0.02, Corrupt: 0.02, Seed: 1}},
		Options{
			// Every dropped response costs one CallTimeout, so the deadline
			// is kept tight to bound the test's wall clock.
			CallTimeout: 50 * time.Millisecond,
			Backoff:     Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 12},
		})

	retries := mRPCRetries.Value()
	eng := cluster.New(cluster.Config{Workers: 3})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("faulted remote mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if mRPCRetries.Value() == retries {
		t.Fatal("the faulted run never retried: no fault fired")
	}
}

// TestGoldenMiningFailover: a fragment server killed mid-mine must not
// change the mining output — the coordinator re-attaches the worker's
// spill file and finishes the run locally.
func TestGoldenMiningFailover(t *testing.T) {
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
	// DieAfter kills the server partway through the run's Extend stream;
	// FallbackPath points at the worker's own spill file — the recovery
	// unit named by the design.
	frags, clients := mixFragments(t, dir, att, map[int]bool{1: true},
		ServerOptions{DieAfter: 25},
		Options{
			CallTimeout:  200 * time.Millisecond,
			Backoff:      Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 3},
			FallbackPath: filepath.Join(dir, parallel.FragmentSnapshotName(1)),
		})

	eng := cluster.New(cluster.Config{Workers: 3})
	res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
	if got := canonicalizeResult(res.Result); got != want {
		t.Fatalf("failover mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !clients[0].FailedOver() {
		t.Fatal("server died mid-mine but the fragment never failed over")
	}
}

// TestGoldenMiningFailback: the full recovery loop around the golden
// run. A server killed mid-mine forces failover (run 1 stays golden on
// the spill attach); the server then restarts on the same address and
// re-announces to the coordinator's registry, the balancer adopts it at
// the next superstep boundary, and a second mine goes back over the wire
// — byte-identical both times.
func TestGoldenMiningFailback(t *testing.T) {
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
	frags, clients := mixFragments(t, dir, att, map[int]bool{1: true},
		ServerOptions{DieAfter: 25},
		Options{
			CallTimeout:  200 * time.Millisecond,
			Backoff:      Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 3},
			FallbackPath: fragPath,
		})
	rf := clients[0]
	addr := rf.Addr()
	reg := cluster.NewRegistry()
	regAddr := startRegistry(t, reg, RegistryServerOptions{})
	if _, err := reg.Announce(1, addr, 0); err != nil {
		t.Fatal(err)
	}
	bal := NewBalancer(reg, nil, t.Logf)
	bal.Manage(rf, addr)
	mine := func() string {
		eng := cluster.New(cluster.Config{Workers: 3})
		res := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng,
			parallel.Options{LoadBalance: true, Membership: bal})
		return canonicalizeResult(res.Result)
	}

	if got := mine(); got != want {
		t.Fatalf("failover mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !rf.FailedOver() {
		t.Fatal("server died mid-mine but the fragment never failed over")
	}

	// The worker recovers: restart its server on the original address and
	// re-announce it over the wire, as gfdfrag -resurrect-after does.
	m2, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(m2, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for i := 0; i < 50; i++ {
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
	t.Cleanup(func() {
		s2.Close()
		m2.Close()
	})
	if _, err := Announce(context.Background(), regAddr, announceFrag(t, fragPath, addr, 0), Options{Backoff: testBackoff()}); err != nil {
		t.Fatalf("re-announce: %v", err)
	}

	// Mine again: the first boundary adopts the recovered server, the
	// output is still golden, and the restarted server carried join
	// traffic beyond the adoption handshake.
	if got := mine(); got != want {
		t.Fatalf("post-rejoin mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if rf.FailedOver() || bal.Adoptions() != 1 || bal.Rejoins() != 1 {
		t.Fatalf("recovered server not adopted: failedOver=%v adoptions=%d rejoins=%d", rf.FailedOver(), bal.Adoptions(), bal.Rejoins())
	}
	if s2.Served() <= 1 {
		t.Fatalf("the restarted server served %d frames: post-rejoin shares never reached it", s2.Served())
	}
}
