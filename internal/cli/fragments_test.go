package cli

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/remote"
)

// coverLines renders a report's cover one GFD per line.
func coverLines(rep *Report) string {
	var b strings.Builder
	for _, m := range rep.Cover {
		fmt.Fprintln(&b, m.Describe())
	}
	return b.String()
}

// settleGoroutines waits for the goroutine count to fall back to base:
// closed connections' readers and accept loops exit just after Close.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mappedFiles counts this process's memory mappings of files under dir,
// or returns -1 where /proc/self/maps cannot be read.
func mappedFiles(dir string) int {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	return strings.Count(string(maps), dir+"/")
}

// TestDiscoverFragments: the one -fragdir pipeline mines the same cover
// as the in-memory run whether the workers join mmap views directly or
// through in-process members — plain, under injected faults, and with
// every member dying mid-mine and coming back. The dying run must see a
// member adopted again after its failover, and every run must release
// the goroutines it started and every mapping but the attached cut's.
func TestDiscoverFragments(t *testing.T) {
	g, err := LoadOrGenerate("", "yago2", 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := DiscoverOptions(3, 10)
	want := coverLines(Discover(g, opts, 3))

	var logMu sync.Mutex
	var log []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		log = append(log, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	for _, tc := range []struct {
		name  string
		serve bool
		rt    Runtime
	}{
		{"spilled", false, Runtime{}},
		{"serve", true, Runtime{Logf: logf}},
		{"serve-fault", true, Runtime{Fault: remote.FaultSpec{Drop: 0.02, Seed: 1}, Logf: logf}},
		// Each member dies at its fifth frame, early in the run; the retry
		// ladder (about 130 ms under DieAfter) fails it over well before
		// the restart, which then re-announces.
		{"serve-die-restart", true, Runtime{DieAfter: 5, RestartAfter: 200 * time.Millisecond, Logf: logf}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			rep, err := DiscoverFragments(g, opts, 3, dir, tc.serve, tc.rt)
			if err != nil {
				t.Fatal(err)
			}
			if got := coverLines(rep); got != want {
				t.Fatalf("cover diverged from the in-memory run.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if tc.serve {
				if rep.Members != 2 || rep.Adoptions < 2 || rep.MeasuredBytes == 0 {
					t.Fatalf("served run: %d members, %d adoptions, %d wire bytes; want both members adopted and traffic", rep.Members, rep.Adoptions, rep.MeasuredBytes)
				}
			}
			if tc.rt.RestartAfter > 0 && rep.Rejoined == 0 {
				logMu.Lock()
				defer logMu.Unlock()
				t.Fatalf("no member rejoined after dying (adoptions %d, failed over %d):\n%s", rep.Adoptions, rep.FailedOver, strings.Join(log, "\n"))
			}
			settleGoroutines(t, base)
			// The report aliases the attached cut (graph.gfds and three
			// fragments), which stays mapped; the slots' and members' own
			// mappings must be gone.
			if n := mappedFiles(dir); n != -1 && n != 4 {
				t.Fatalf("%d mappings of %s after the run, want the attached cut's 4", n, dir)
			}
		})
	}
}

// reread round-trips g through its TSV form, with drop also leaving out
// every second edge of each label: the nodes, attributes and symbol
// pools stay the same.
func reread(t *testing.T, g graph.View, drop bool) *graph.Graph {
	t.Helper()
	var in, out bytes.Buffer
	if err := graph.Write(&in, g); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	sc := bufio.NewScanner(&in)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Split(line, "\t"); f[0] == "E" {
			seen[f[3]]++
			if drop && seen[f[3]]%2 == 0 {
				continue
			}
		}
		fmt.Fprintln(&out, line)
	}
	h, err := graph.Read(&out)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDiscoverFragmentsStaleCut: a -fragdir directory holding the cut of
// a graph that differs only in its edges is not reused — the
// node-store fingerprint cannot tell the two apart — so the second run
// mines the new graph's GFDs. With external members possibly serving the
// directory, the run refuses instead of rewriting it.
func TestDiscoverFragmentsStaleCut(t *testing.T) {
	src, err := LoadOrGenerate("", "dbpedia", 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, h := reread(t, src, false), reread(t, src, true)
	if h.NumEdges() >= g.NumEdges() || remote.Fingerprint(h) != remote.Fingerprint(g) {
		t.Fatalf("edited graph: %d of %d edges, fingerprint equal %v; want fewer edges, same fingerprint",
			h.NumEdges(), g.NumEdges(), remote.Fingerprint(h) == remote.Fingerprint(g))
	}
	opts := DiscoverOptions(2, 10)
	dir := t.TempDir()
	for _, v := range []graph.View{g, h, h} {
		rep, err := DiscoverFragments(v, opts, 3, dir, false, Runtime{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := coverLines(rep), coverLines(Discover(v, opts, 0)); got != want {
			t.Fatalf("cover of a %d-edge graph mined over a reused cut diverged.\n--- got ---\n%s--- want ---\n%s", v.NumEdges(), got, want)
		}
	}
	if _, err := DiscoverFragments(g, opts, 3, dir, false, Runtime{Addr: "127.0.0.1:0"}); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("external-member run over another graph's cut: err = %v, want a refusal", err)
	}
}
