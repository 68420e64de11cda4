package gfd

// OS-process golden tests for the distributed runtime: real gfdfrag
// server processes serve spilled fragments over loopback TCP while the
// coordinator mines in this process — output must be byte-identical to
// the committed golden file, including when a server is killed mid-mine
// and the coordinator fails over to the worker's spill file.

import (
	"bufio"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/remote"
)

func loadGoldenBytes(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(goldenGFDsPath)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	return want
}

var gfdfragBin struct {
	once sync.Once
	path string
	err  error
}

// buildGfdfrag builds the fragment-server binary once per test process.
func buildGfdfrag(t *testing.T) string {
	t.Helper()
	gfdfragBin.once.Do(func() {
		// Not t.TempDir: the binary must outlive the first test that builds
		// it. The directory is removed by whichever test runs last, via the
		// process-exit cleanup go test performs on os.MkdirTemp children of
		// its own work dir — or by the OS's tmp reaping.
		dir, err := os.MkdirTemp("", "gfdfrag-test-")
		if err != nil {
			gfdfragBin.err = err
			return
		}
		bin := filepath.Join(dir, "gfdfrag")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/gfdfrag")
		if out, err := cmd.CombinedOutput(); err != nil {
			gfdfragBin.err = err
			t.Logf("go build ./cmd/gfdfrag: %s", out)
			return
		}
		gfdfragBin.path = bin
	})
	if gfdfragBin.err != nil {
		t.Fatalf("build gfdfrag: %v", gfdfragBin.err)
	}
	return gfdfragBin.path
}

// startFragProcess launches one gfdfrag OS process on a free port and
// returns its bound address plus the command handle.
func startFragProcess(t *testing.T, bin, fragPath string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-frag", fragPath, "-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start gfdfrag: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("gfdfrag produced no address line: %v", sc.Err())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "listening ")
	if !ok {
		t.Fatalf("unexpected gfdfrag output %q", line)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return addr, cmd
}

// TestGoldenMiningRemoteProcess: ParDis with workers split across OS
// processes mines the committed golden bytes exactly — worker 0 joins
// against its local mmap, the rest against gfdfrag servers.
func TestGoldenMiningRemoteProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildGfdfrag(t)
	g := loadGoldenGraph(t)
	want := string(loadGoldenBytes(t))

	for _, workers := range []int{2, 4} {
		dir := t.TempDir()
		if err := parallel.Spill(dir, g, parallel.VertexCut(g, workers)); err != nil {
			t.Fatalf("n=%d: Spill: %v", workers, err)
		}
		att, err := parallel.Attach(dir)
		if err != nil {
			t.Fatalf("n=%d: Attach: %v", workers, err)
		}
		frags := make([]parallel.Fragment, workers)
		copy(frags, att.Frags)
		for w := 1; w < workers; w++ {
			fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(w))
			addr, _ := startFragProcess(t, bin, fragPath)
			rf, err := remote.Dial(context.Background(), addr, att.Graph, remote.Options{
				FallbackPath: fragPath,
			})
			if err != nil {
				t.Fatalf("n=%d: dial worker %d: %v", workers, w, err)
			}
			defer rf.Close()
			frags[w].Sub = rf
		}
		eng := cluster.New(cluster.Config{Workers: workers})
		pr := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
		got := canonicalize(pr.Result)
		if stats := eng.Stats(); stats.MeasuredBytes == 0 {
			t.Fatalf("n=%d: no wire traffic measured against the server processes", workers)
		}
		if err := att.Close(); err != nil {
			t.Fatalf("n=%d: Close: %v", workers, err)
		}
		if got != want {
			t.Fatalf("OS-process mining (n=%d) diverged from golden output.\n--- got ---\n%s--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestGoldenMiningRemoteProcessKilled: one server process dies abruptly
// mid-mine (-die-after → exit(3)); the coordinator fails over to that
// worker's spill file and the output stays byte-identical.
func TestGoldenMiningRemoteProcessKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildGfdfrag(t)
	g := loadGoldenGraph(t)
	want := string(loadGoldenBytes(t))

	const workers = 3
	dir := t.TempDir()
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, workers)); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	att, err := parallel.Attach(dir)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	defer att.Close()

	frags := make([]parallel.Fragment, workers)
	copy(frags, att.Frags)
	var victim *remote.RemoteFragment
	var victimCmd *exec.Cmd
	for w := 1; w < workers; w++ {
		fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(w))
		extra := []string{}
		if w == 1 {
			// The victim: drops dead partway through the Extend stream,
			// with a span log that must survive the abrupt exit.
			extra = []string{"-die-after", "30", "-trace", filepath.Join(dir, "victim.jsonl")}
		}
		addr, cmd := startFragProcess(t, bin, fragPath, extra...)
		rf, err := remote.Dial(context.Background(), addr, att.Graph, remote.Options{
			FallbackPath: fragPath,
			CallTimeout:  500 * time.Millisecond,
			Backoff:      remote.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 3},
		})
		if err != nil {
			t.Fatalf("dial worker %d: %v", w, err)
		}
		defer rf.Close()
		frags[w].Sub = rf
		if w == 1 {
			victim, victimCmd = rf, cmd
		}
	}

	eng := cluster.New(cluster.Config{Workers: workers})
	pr := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng, parallel.Options{LoadBalance: true})
	got := canonicalize(pr.Result)
	if got != want {
		t.Fatalf("mining with a killed server diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if !victim.FailedOver() {
		t.Fatal("victim server died but its fragment never failed over to the spill file")
	}
	// The server really did die abruptly: exit code 3, not a clean stop.
	if err := victimCmd.Wait(); err == nil {
		t.Fatal("victim process exited cleanly; -die-after should exit(3)")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("victim exit: %v, want exit status 3", err)
	}
	// The span log was fsynced and closed on the death path: the serve
	// and die events must be readable after exit(3).
	spans, err := obs.ReadSpansFile(filepath.Join(dir, "victim.jsonl"))
	if err != nil {
		t.Fatalf("victim trace unreadable after crash: %v", err)
	}
	names := make(map[string]bool, len(spans))
	for _, s := range spans {
		names[s.Name] = true
	}
	if !names["serve"] || !names["die"] {
		t.Fatalf("victim trace missing lifecycle events (got %v), want serve and die", spans)
	}
}

// wireShares counts the extend batches a remote fragment sends while it
// is serving remotely, i.e. over the wire to its server.
type wireShares struct {
	*remote.RemoteFragment
	n atomic.Int64
}

func (w *wireShares) ExtendIndexed(t *match.Table, children []*pattern.Pattern) []match.IndexedExt {
	if !w.FailedOver() {
		w.n.Add(1)
	}
	return w.RemoteFragment.ExtendIndexed(t, children)
}

// TestGoldenMiningRemoteProcessFailback: the full recovery loop across OS
// processes. Two gfdfrag -announce members join the coordinator's
// registry and are adopted at the first superstep boundary. One has
// -die-after and -resurrect-after: it drops dead mid-mine (failover to
// the spill file, run 1 golden), rebinds its original port and
// re-announces; the balancer adopts it again and a second mine goes back
// over the wire to it — golden again.
func TestGoldenMiningRemoteProcessFailback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildGfdfrag(t)
	g := loadGoldenGraph(t)
	want := string(loadGoldenBytes(t))

	const workers = 3
	dir := t.TempDir()
	if err := parallel.Spill(dir, g, parallel.VertexCut(g, workers)); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	att, err := parallel.Attach(dir)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	defer att.Close()

	reg := cluster.NewRegistry()
	rs := remote.NewRegistryServer(reg, remote.RegistryServerOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(l)
	defer rs.Close()
	bal := remote.NewBalancer(reg, nil, t.Logf)

	frags := make([]parallel.Fragment, workers)
	copy(frags, att.Frags)
	var victim *wireShares
	for w := 1; w < workers; w++ {
		fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(w))
		extra := []string{"-announce", l.Addr().String()}
		if w == 1 {
			// The victim dies partway through the Extend stream, then
			// resurrects in-process on the same port and re-announces.
			extra = append(extra, "-die-after", "30", "-resurrect-after", "100ms")
		}
		startFragProcess(t, bin, fragPath, extra...)
		rf, err := remote.NewLocalFragment(context.Background(), att.Graph, fragPath, remote.Options{
			CallTimeout: 500 * time.Millisecond,
			Backoff:     remote.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 3},
		})
		if err != nil {
			t.Fatalf("slot %d: %v", w, err)
		}
		defer rf.Close()
		bal.Manage(rf, "")
		frags[w].Sub = rf
		if w == 1 {
			victim = &wireShares{RemoteFragment: rf}
			frags[w].Sub = victim
		}
	}
	wctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := reg.Wait(wctx, workers-1); err != nil {
		t.Fatalf("members never announced: %v", err)
	}
	mine := func() string {
		eng := cluster.New(cluster.Config{Workers: workers})
		pr := parallel.MineFragments(context.Background(), att.Graph, frags, goldenOptions(), eng,
			parallel.Options{LoadBalance: true, Membership: bal})
		return canonicalize(pr.Result)
	}

	if got := mine(); got != want {
		t.Fatalf("mining with a dying server diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The resurrected process re-announces (epoch 3, after the two
	// initial announcements); the next boundary adopts it.
	for reg.Epoch() < 3 {
		if wctx.Err() != nil {
			t.Fatal("the resurrected gfdfrag never re-announced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.n.Store(0)
	if got := mine(); got != want {
		t.Fatalf("post-rejoin mining diverged from golden output.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if bal.Rejoins() != 1 || victim.FailedOver() {
		t.Fatalf("the resurrected gfdfrag was not adopted again: rejoins=%d failedOver=%v", bal.Rejoins(), victim.FailedOver())
	}
	if victim.n.Load() == 0 {
		t.Fatal("post-rejoin mine sent no shares to the resurrected gfdfrag")
	}
}
