package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/discovery"
	"repro/internal/store"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// driver starts every job as `<exe> job ...`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "job" {
		os.Exit(jobMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// tinyScale keeps every job of the self-test well under a second.
var tinyScale = map[string]int{
	"dbpedia-k3-seq":  30,
	"yago2-k3-pardis": 150,
	"yago2-k3-remote": 150,
}

type specMetric struct {
	Name, Unit string
}

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at a tiny
// scale, untraced and traced, and checks that each run is correct and
// reports every metric the spec names, with the spec's unit.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, sw := range s.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w.scale = tinyScale[w.name]
		for _, trace := range []bool{false, true} {
			out, err := benchmark(w, 1, 0, trace, exe)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var res result
			if err := json.Unmarshal(out, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minJobs {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, spec names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			// The backend timers run inside mine time; if their sum
			// exceeds it, a layer is counted twice.
			if trace && res.Metrics["driver.self_s"].Value <= 0 {
				t.Errorf("%s: backend layer times exceed mine_s (driver.self_s = %v)", w.name, res.Metrics["driver.self_s"].Value)
			}
		}
	}
}

// TestTamperedResultFailsDigest: a result differing from the reference in
// a single support count must fail the check, and a run whose reference
// does not match its output must report correct=false with every whole
// job failed (set-up-only jobs produce no output to check).
func TestTamperedResultFailsDigest(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	w, err := lookupWorkload("yago2-k3-pardis")
	if err != nil {
		t.Fatal(err)
	}
	w.scale = tinyScale[w.name]
	g, err := w.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	input, err := filepath.Abs("input.gfds")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile(input, g); err != nil {
		t.Fatal(err)
	}
	ref, err := referenceDigest(w, input)
	if err != nil {
		t.Fatal(err)
	}

	jr, err := runJob(w, input, "job", modeTimed)
	if err != nil {
		t.Fatal(err)
	}
	if why := check(ref, jr); why != "" {
		t.Fatalf("untampered ParDis job fails its check: %s", why)
	}

	m, err := store.Open(input)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := discovery.MineView(m, mineOptions())
	if len(res.Positives) == 0 {
		t.Fatal("tiny workload mined nothing; the tamper check would be vacuous")
	}
	res.Positives[0].Support++
	tampered := &jobResult{Digest: digest(res, discovery.MinedCover(res)), Metrics: map[string]float64{}}
	if why := check(ref, tampered); why == "" {
		t.Fatalf("tampered result passed the digest check")
	}

	work, err := filepath.Abs("work")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{w: w, seed: 1, seconds: time.Duration(0), exe: exe, work: work, ref: tampered.Digest}
	r := measure(cfg, input)
	if r.Correct || r.Failed != r.Attempted-setupJobs || r.Failed < minJobs {
		t.Fatalf("run against a tampered reference: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if ok := r.Metrics["ok_frac"].Value; ok != 0 {
		t.Fatalf("every whole job failed, but ok_frac = %v", ok)
	}
}

// TestRetryFailsRun: a job whose output is right but that retried an RPC
// or failed over still fails the check.
func TestRetryFailsRun(t *testing.T) {
	for _, name := range []string{"remote.retries", "remote.failovers"} {
		jr := &jobResult{Digest: "d", Metrics: map[string]float64{name: 1}}
		if why := check("d", jr); why == "" {
			t.Errorf("a job with %s = 1 passed its check", name)
		}
	}
}

// TestReferenceFile: every workload has a digest recorded on the graph
// it runs, so no benchmark run falls back to mining a reference.
func TestReferenceFile(t *testing.T) {
	refs, err := readReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		d, ok, err := recordedDigest(w)
		if err != nil || !ok || len(d) != 64 {
			t.Errorf("%s: recorded digest %q, ok=%v, err=%v", w.name, d, ok, err)
		}
		if r := refs.Workloads[w.name]; len(r.Verified) < 10 {
			t.Errorf("%s: digest verified on %d seeds, want at least 10", w.name, len(r.Verified))
		}
	}
}
