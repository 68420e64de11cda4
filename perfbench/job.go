package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/discovery"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/remote"
	"repro/internal/store"
)

// workers is n for the ParDis workloads: the benchmark host has two
// cores, so two concurrent workers and at most one loopback connection.
const workers = 2

// mineOptions is the mining configuration every workload runs: the CLI
// defaults at k=3, σ=25.
func mineOptions() discovery.Options { return cli.DiscoverOptions(3, 25) }

// jobResult is what one whole job reports: its metrics by name and the
// digest of its output. Metrics always carry the end-to-end timings and
// the remote fault counters; a traced job adds the per-layer split.
type jobResult struct {
	Digest  string             `json:"digest"`
	Metrics map[string]float64 `json:"metrics"`
}

// counterNames are the registry counters a job reports as deltas.
var counterNames = []string{
	"gfd_match_plan_compiles_total",
	"gfd_match_extend_rows_total",
	"gfd_rpc_calls_total",
	"gfd_rpc_retries_total",
	"gfd_remote_failovers_total",
}

func readCounters() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = obs.Default.Counter(n).Value()
	}
	return out
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSS reads this process's peak resident set (VmHWM) in MB. The
// driver cannot take it from the job's rusage: Linux carries the parent's
// peak into a child it forked, so small jobs would report the driver's.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stopwatch hands out consecutive laps since the last call.
type stopwatch struct{ last time.Time }

func (s *stopwatch) lap() float64 {
	now := time.Now()
	d := now.Sub(s.last).Seconds()
	s.last = now
	return d
}

// jobMode selects what a job runs and records.
type jobMode string

const (
	modeTimed  jobMode = "timed"  // the whole job, no instrumentation
	modeTraced jobMode = "traced" // the whole job, every layer timed
	modeSetup  jobMode = "setup"  // set-up only, for more setup_s samples
)

// runJob runs one workload as a whole job in this process: open the input
// snapshot, build the engine, mine, and compute the cover. dir is scratch
// space for the spill. When traced, backend calls are timed per layer and
// the program's own span log is captured; untraced jobs add no wrappers.
func runJob(w workload, input, dir string, mode jobMode) (*jobResult, error) {
	traced := mode == modeTraced
	opts := mineOptions()
	var clock *layerClock
	var spans bytes.Buffer
	var tracer *obs.Tracer
	if traced {
		clock = &layerClock{}
		tracer = obs.NewTracer(&spans)
		opts.Trace = tracer
	}
	m := map[string]float64{}
	c0 := readCounters()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()

	start := time.Now()
	sw := stopwatch{last: start}
	g, err := store.Open(input)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	m["store.open_s"] = sw.lap()
	prof := discovery.NewProfile(g, opts.ActiveAttrs)
	m["profile.s"] = sw.lap()

	var b discovery.Backend
	var eng *cluster.Engine
	switch w.engine {
	case engineSeq:
		b = discovery.NewSeqBackend(g, opts.MaxTableRows, nil)
	case enginePar, engineRemote:
		spill := filepath.Join(dir, "frags")
		if err := parallel.Spill(spill, g, parallel.VertexCut(g, workers)); err != nil {
			return nil, err
		}
		m["store.spill_s"] = sw.lap()
		att, err := parallel.Attach(spill)
		if err != nil {
			return nil, err
		}
		defer att.Close()
		m["store.attach_s"] = sw.lap()
		frags := append([]parallel.Fragment(nil), att.Frags...)
		if w.engine == engineRemote {
			rf, stop, err := serveRemote(spill, att.Graph, tracer)
			if err != nil {
				return nil, err
			}
			defer stop()
			frags[1].Sub = rf
			m["remote.dial_s"] = sw.lap()
		}
		eng = cluster.New(cluster.Config{Workers: workers, Mode: cluster.Concurrent, Obs: obs.Default, Trace: tracer})
		// The backend runs its own statistics scan of the master view: the
		// same work as the profile, so it is charged there.
		b = parallel.NewBackendWithFragments(att.Graph, eng, frags, parallel.Options{LoadBalance: true, MaxTableRows: opts.MaxTableRows}, nil)
		m["profile.s"] += sw.lap()
	}
	setup := time.Since(start).Seconds()
	if mode == modeSetup {
		return &jobResult{Metrics: map[string]float64{"setup_s": setup}}, nil
	}
	sw.lap()

	if clock != nil {
		b = timedBackend{b: b, c: clock}
	}
	mined := discovery.MineWithBackend(b, prof, opts)
	mine := sw.lap()
	cover := discovery.MinedCover(mined)
	coverS := sw.lap()
	wall := time.Since(start).Seconds()

	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	c1 := readCounters()
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	m["wall_s"] = wall
	m["setup_s"] = setup
	m["mine_s"] = mine
	m["cover_s"] = coverS
	m["alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["peak_rss_mb"] = rss
	m["remote.retries"] = delta("gfd_rpc_retries_total")
	m["remote.failovers"] = delta("gfd_remote_failovers_total")
	if traced {
		m["go.gc_cpu_s"] = gcCPUSeconds() - gc0
		m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		m["match.plan_compiles"] = delta("gfd_match_plan_compiles_total")
		m["match.extend_rows"] = delta("gfd_match_extend_rows_total")
		m["remote.rpc_calls"] = delta("gfd_rpc_calls_total")
		addLayers(m, clock, mined, cover)
		if eng != nil {
			addCluster(m, eng.Stats())
		}
		if err := tracer.Close(); err != nil {
			return nil, err
		}
		if err := addShares(m, &spans); err != nil {
			return nil, err
		}
	}
	return &jobResult{Digest: digest(mined, cover), Metrics: m}, nil
}

// serveRemote starts an in-process fragment server for worker 1's spill
// file on a loopback port and dials it. stop closes the client, then the
// server, and waits for the server's accept loop to return.
func serveRemote(spill string, base *store.MappedGraph, tracer *obs.Tracer) (*remote.RemoteFragment, func(), error) {
	path := filepath.Join(spill, parallel.FragmentSnapshotName(1))
	fm, err := store.Open(path)
	if err != nil {
		return nil, nil, err
	}
	srv, err := remote.NewServer(fm, remote.ServerOptions{})
	if err != nil {
		fm.Close()
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fm.Close()
		return nil, nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l)
	}()
	stopServer := func() {
		srv.Close()
		<-served
		fm.Close()
	}
	// The CLI's remote settings: a one-second call deadline, failing over
	// to the worker's spill file if the server is declared dead.
	rf, err := remote.Dial(context.Background(), l.Addr().String(), base, remote.Options{
		FallbackPath: path,
		CallTimeout:  time.Second,
		Trace:        tracer,
	})
	if err != nil {
		stopServer()
		return nil, nil, err
	}
	return rf, func() {
		rf.Close()
		stopServer()
	}, nil
}

// addLayers derives the per-layer split from the traced job's clock and
// output. driver.self_s is mine time not spent inside a backend call.
func addLayers(m map[string]float64, c *layerClock, mined *discovery.Result, cover []discovery.Mined) {
	m["match.seed_s"] = c.seed.Seconds()
	m["match.extend_s"] = c.extend.Seconds()
	m["match.release_s"] = c.release.Seconds()
	m["match.rows_per_s"] = 0
	if c.extend > 0 {
		m["match.rows_per_s"] = m["match.extend_rows"] / c.extend.Seconds()
	}
	m["literal.constants_s"] = c.constants.Seconds()
	m["literal.index_s"] = c.index.Seconds()
	m["literal.query_s"] = c.query.Seconds()
	m["literal.queries"] = float64(c.queries)
	m["driver.self_s"] = m["mine_s"] - c.backend().Seconds()

	st := mined.Stats
	checked := float64(st.CandidatesChecked)
	m["driver.candidates_checked"] = checked
	m["driver.candidates_pruned"] = float64(st.CandidatesPruned)
	m["driver.ns_per_candidate"] = 0
	m["driver.useful_ratio"] = 0
	if checked > 0 {
		m["driver.ns_per_candidate"] = m["mine_s"] * 1e9 / checked
		m["driver.useful_ratio"] = float64(len(mined.Positives)) / checked
	}
	in := float64(len(mined.Positives) + len(mined.Negatives))
	m["cover.in_gfds"] = in
	m["cover.out_gfds"] = float64(len(cover))
	m["cover.us_per_in_gfd"] = 0
	if in > 0 {
		m["cover.us_per_in_gfd"] = m["cover_s"] * 1e6 / in
	}
}

// addCluster reports the engine's accounting. In Concurrent mode compute
// time is real elapsed superstep time; comm time stays the cost model's.
func addCluster(m map[string]float64, s cluster.Stats) {
	m["cluster.compute_s"] = s.ComputeTime.Seconds()
	m["cluster.comm_s"] = s.CommTime.Seconds()
	m["cluster.master_s"] = s.MasterTime.Seconds()
	m["cluster.sim_response_s"] = s.Total().Seconds()
	m["cluster.skew"] = s.Skew()
	m["cluster.supersteps"] = float64(s.Supersteps)
	m["remote.wire_mb"] = float64(s.MeasuredBytes) / 1e6
}

// addShares computes exact share-latency quantiles from the "share" spans
// of the job's span log (the remote client opens one per join share).
func addShares(m map[string]float64, log *bytes.Buffer) error {
	spans, err := obs.ReadSpans(log)
	if err != nil {
		return err
	}
	var ms []float64
	for _, s := range spans {
		if s.Name == "share" {
			ms = append(ms, float64(s.DurNs)/1e6)
		}
	}
	sort.Float64s(ms)
	m["remote.shares"] = float64(len(ms))
	m["remote.share_p50_ms"] = rankQuantile(ms, 0.50)
	m["remote.share_p99_ms"] = rankQuantile(ms, 0.99)
	return nil
}

// rankQuantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func rankQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// digest hashes the sorted mined set (kind, canonical key, support,
// level) and the sorted cover keys: equal digests mean byte-identical
// output, the property the golden tests pin across engines.
func digest(res *discovery.Result, cover []discovery.Mined) string {
	var mined, cov []string
	for _, p := range res.Positives {
		mined = append(mined, fmt.Sprintf("P\t%s\tsupp=%d\tlevel=%d", p.GFD.Key(), p.Support, p.Level))
	}
	for _, n := range res.Negatives {
		mined = append(mined, fmt.Sprintf("N\t%s\tsupp=%d\tlevel=%d", n.GFD.Key(), n.Support, n.Level))
	}
	for _, c := range cover {
		cov = append(cov, "C\t"+c.GFD.Key())
	}
	sort.Strings(mined)
	sort.Strings(cov)
	sum := sha256.Sum256([]byte(strings.Join(mined, "\n") + "\n--\n" + strings.Join(cov, "\n") + "\n"))
	return hex.EncodeToString(sum[:])
}
