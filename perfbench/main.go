// Command perfbench is the repository's whole-run mining benchmark. Each
// workload runs as one whole job per process — open the input snapshot,
// mine with SeqDis or ParDis, compute the cover — repeated for the
// requested number of seconds, and the driver prints the medians of every
// metric by name and unit as one JSON object on its last output line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload dbpedia-k3-seq --seed 1 --seconds 20 --trace 0
//
// The input graph is generated from --seed before timing starts. Every
// job's output is hashed and compared against the workload's digest
// recorded in reference.json, or, for a graph with no recording (the
// self-test's tiny scales), against the other engine's output on the
// same graph (SeqDis for ParDis workloads, ParDis for the SeqDis
// workload). A job fails if its digest mismatches, it crashes, or any
// remote share retries or fails over on the fault-free loopback link.
//
// With --trace 0 the jobs run without instrumentation and the end-to-end
// metrics are reported. With --trace 1 untraced and traced jobs alternate:
// traced jobs wrap the mining backend in per-layer timers, capture the
// program's span log, and give the per-layer split; trace.overhead_frac is
// traced over untraced mine time, minus one.
//
// `bash perfbench/run.sh record -workload <name>` re-records a workload's
// reference digest and split in reference.json. The self-test runs every
// workload at a tiny scale: cd perfbench && go test .
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of --trace 0 runs: what a user of the miner sees.
var endToEnd = []metric{
	{"wall_s", "s"}, {"setup_s", "s"}, {"mine_s", "s"}, {"cover_s", "s"},
	{"peak_rss_mb", "MB"}, {"alloc_mb", "MB"}, {"ok_frac", "ratio"},
}

// perLayer are the metrics of --trace 1 runs, medians over traced jobs.
// Layers a workload does not run (spill on SeqDis, wire on local ParDis)
// report zero.
var perLayer = []metric{
	{"store.open_s", "s"}, {"store.spill_s", "s"}, {"store.attach_s", "s"},
	{"profile.s", "s"}, {"remote.dial_s", "s"},
	{"match.seed_s", "s"}, {"match.extend_s", "s"}, {"match.release_s", "s"},
	{"match.extend_rows", "count"}, {"match.rows_per_s", "1/s"}, {"match.plan_compiles", "count"},
	{"literal.constants_s", "s"}, {"literal.index_s", "s"}, {"literal.query_s", "s"},
	{"literal.queries", "count"},
	{"driver.self_s", "s"}, {"driver.candidates_checked", "count"},
	{"driver.candidates_pruned", "count"}, {"driver.ns_per_candidate", "ns"},
	{"driver.useful_ratio", "ratio"},
	{"cover.in_gfds", "count"}, {"cover.out_gfds", "count"}, {"cover.us_per_in_gfd", "us"},
	{"cluster.compute_s", "s"}, {"cluster.comm_s", "s"}, {"cluster.master_s", "s"},
	{"cluster.sim_response_s", "s"}, {"cluster.skew", "ratio"}, {"cluster.supersteps", "count"},
	{"remote.rpc_calls", "count"}, {"remote.retries", "count"}, {"remote.failovers", "count"},
	{"remote.wire_mb", "MB"}, {"remote.shares", "count"},
	{"remote.share_p50_ms", "ms"}, {"remote.share_p99_ms", "ms"},
	{"go.gc_cpu_s", "s"}, {"go.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

const (
	// minJobs is the fewest jobs of each kind a run makes, however short
	// --seconds is, so every median has at least this many samples.
	minJobs = 3
	// maxRun stops a run from starting new jobs, so a run ends within
	// three minutes even when jobs are slow.
	maxRun = 120 * time.Second
	// jobTimeout kills a job that hangs.
	jobTimeout = 100 * time.Second
	// setupJobs is how many set-up-only jobs a --trace 0 run adds.
	setupJobs = 12
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "job" {
		os.Exit(jobMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "record" {
		os.Exit(recordMain(os.Args[2:]))
	}
	os.Exit(driverMain(os.Args[1:]))
}

// jobMain is one job's process: run it and print its result as JSON.
func jobMain(args []string) int {
	fs := flag.NewFlagSet("job", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	input := fs.String("input", "", "input snapshot")
	dir := fs.String("dir", "", "scratch directory")
	mode := fs.String("mode", string(modeTimed), "timed | traced | setup")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench job:", err)
		return 2
	}
	res, err := runJob(w, *input, *dir, jobMode(*mode))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench job:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench job:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// config is one benchmark run's settings.
type config struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// exe is the program that runs jobs (this binary, or a test binary).
	exe string
	// work is the run's scratch directory, inside the checkout.
	work string
	// ref is the digest every job's output must match.
	ref string
}

func driverMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer split from traced jobs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := benchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// benchmark prepares one run's input and reference, measures it, and
// returns the result line.
func benchmark(w workload, seed int64, seconds time.Duration, trace bool, exe string) ([]byte, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	cfg := config{w: w, seed: seed, seconds: seconds, trace: trace, exe: exe, work: work}

	input := filepath.Join(work, "input.gfds")
	g, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	if err := store.WriteFile(input, g); err != nil {
		return nil, err
	}
	g = nil
	ref, ok, err := recordedDigest(w)
	if err != nil {
		return nil, err
	}
	if !ok {
		if ref, err = referenceDigest(w, input); err != nil {
			return nil, err
		}
	}
	cfg.ref = ref
	runtime.GC()
	return json.Marshal(measure(cfg, input))
}

// result is the benchmark's output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs jobs until the measuring time is up and every kind of job
// has its minimum count, then reports medians.
func measure(cfg config, input string) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var plain, traced, setups []map[string]float64
	run := func(i int, mode jobMode) {
		res.Attempted++
		m, fail := oneJob(cfg, input, i, mode)
		if fail != "" {
			// A wrong output, a retry or a failover still took the time it
			// took: its timings count, and the run reports correct=false.
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d job %d: %s\n", cfg.w.name, cfg.seed, i, fail)
		}
		if m == nil {
			return
		}
		setups = append(setups, m)
		if mode == modeSetup {
			return
		}
		if mode == modeTraced {
			traced = append(traced, m)
		} else {
			plain = append(plain, m)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s job %d %s: wall %.3fs setup %.4fs mine %.3fs cover %.3fs rss %.1fMB\n",
			cfg.w.name, i, mode, m["wall_s"], m["setup_s"], m["mine_s"], m["cover_s"], m["peak_rss_mb"])
	}
	start := time.Now()
	i := 0
	for ; ; i++ {
		enough := len(plain) >= minJobs && (!cfg.trace || len(traced) >= minJobs)
		if (enough && time.Since(start) >= cfg.seconds) || time.Since(start) >= maxRun {
			break
		}
		// With tracing, traced and untraced jobs alternate so both see the
		// same machine conditions.
		mode := modeTimed
		if cfg.trace && i%2 == 1 {
			mode = modeTraced
		}
		run(i, mode)
	}
	if len(plain) == 0 || (cfg.trace && len(traced) == 0) {
		res.Correct = false
		return res
	}

	if cfg.trace {
		for _, mt := range perLayer {
			res.Metrics[mt.name] = metricValue{median(traced, mt.name), mt.unit}
		}
		overhead := median(traced, "mine_s")/median(plain, "mine_s") - 1
		res.Metrics["trace.overhead_frac"] = metricValue{overhead, "ratio"}
		return res
	}
	// ok_frac counts whole jobs only: set-up-only jobs have no output to
	// check, so they would dilute it.
	okFrac := 1 - float64(res.Failed)/float64(res.Attempted)
	// Set-up takes milliseconds, so one sample per whole job is too few
	// for a steady median: add set-up-only jobs, each its own process.
	for end := i + setupJobs; i < end; i++ {
		run(i, modeSetup)
	}
	for _, mt := range endToEnd {
		var v float64
		switch mt.name {
		case "ok_frac":
			v = okFrac
		case "setup_s":
			v = median(setups, mt.name)
		default:
			v = median(plain, mt.name)
		}
		res.Metrics[mt.name] = metricValue{v, mt.unit}
	}
	return res
}

// oneJob runs job i in its own process and checks it. It returns the
// job's metrics (nil if it produced none) and why it failed, if it did.
func oneJob(cfg config, input string, i int, mode jobMode) (map[string]float64, string) {
	dir := filepath.Join(cfg.work, "job-"+strconv.Itoa(i))
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, cfg.exe, "job", "-workload", cfg.w.name,
		"-input", input, "-dir", dir, "-mode", string(mode))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Sprintf("job process: %v", err)
	}
	var jr jobResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &jr); err != nil {
		return nil, fmt.Sprintf("job output: %v", err)
	}
	if mode == modeSetup {
		return jr.Metrics, ""
	}
	return jr.Metrics, check(cfg.ref, &jr)
}

// check returns why a job's result fails the benchmark, or "" if it
// passes.
func check(ref string, jr *jobResult) string {
	var why []string
	if jr.Digest != ref {
		why = append(why, fmt.Sprintf("output digest %.12s, want %.12s", jr.Digest, ref))
	}
	if n := jr.Metrics["remote.retries"]; n > 0 {
		why = append(why, fmt.Sprintf("%v RPC retries on a fault-free link", n))
	}
	if n := jr.Metrics["remote.failovers"]; n > 0 {
		why = append(why, fmt.Sprintf("%v fragment failovers", n))
	}
	return strings.Join(why, "; ")
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// median is the median of one metric across jobs (missing counts as 0).
func median(jobs []map[string]float64, name string) float64 {
	xs := make([]float64, len(jobs))
	for i, m := range jobs {
		xs[i] = m[name]
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// recordMain writes a workload's reference digest and recorded split into
// reference.json. Every seed of recordSeeds is mined by the workload's own
// engine and by the reference engine; the digest is recorded only if all
// of them agree. The split is one untraced and one traced run at the
// first seed, each as long as a benchmark run (run_seconds in
// BENCHMARK.json).
func recordMain(args []string) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	file := fs.String("file", "perfbench/reference.json", "reference file to update")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := record(*name, *file); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench record:", err)
		return 1
	}
	return 0
}

// recordSeeds are the seeds a recorded digest is verified on.
var recordSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

func record(name, file string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	refs, err := readReferences(raw)
	if err != nil {
		return err
	}
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var runSpec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(spec, &runSpec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := time.Duration(runSpec.RunSeconds) * time.Second
	seeds := recordSeeds
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	wr := workloadReference{Scale: w.scale, Instance: w.instance, Verified: seeds}
	for _, seed := range seeds {
		g, err := w.generate(seed)
		if err != nil {
			return err
		}
		input := filepath.Join(work, "input.gfds")
		if err := store.WriteFile(input, g); err != nil {
			return err
		}
		jr, err := runJob(w, input, filepath.Join(work, "job"), modeTimed)
		if err != nil {
			return err
		}
		ref, err := referenceDigest(w, input)
		if err != nil {
			return err
		}
		if jr.Digest != ref || (wr.Digest != "" && ref != wr.Digest) {
			return fmt.Errorf("seed %d: digest %.12s, reference engine %.12s, earlier seeds %.12s: nothing recorded", seed, jr.Digest, ref, wr.Digest)
		}
		wr.Digest = ref
		fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, seed, ref)
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	wr.Split = map[string]map[string]float64{}
	for _, trace := range []bool{false, true} {
		out, err := benchmark(w, seeds[0], seconds, trace, exe)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(out, &res); err != nil {
			return err
		}
		if !res.Correct || res.Failed > 0 {
			return errors.New("split run failed its checks: nothing recorded")
		}
		kind := "end_to_end"
		if trace {
			kind = "per_layer"
		}
		wr.Split[kind] = map[string]float64{}
		for k, v := range res.Metrics {
			wr.Split[kind][k] = v.Value
		}
	}

	if refs.Workloads == nil {
		refs.Workloads = map[string]workloadReference{}
	}
	refs.Workloads[name] = wr
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(out, '\n'), 0o644)
}
