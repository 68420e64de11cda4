// Command gfddiscover mines graph functional dependencies from a property
// graph: a TSV graph file, a binary snapshot (.gfds, opened zero-copy via
// mmap — the format is auto-detected by magic bytes), or one of the
// built-in dataset generators. It prints the discovered cover with
// supports, sequentially or on the simulated cluster. With -fragdir the
// parallel run persists every fragment as a snapshot and the workers
// re-attach and join against the mmap-backed fragment views.
//
// Examples:
//
//	gfddiscover -dataset yago2 -scale 500 -k 3 -sigma 25
//	gfddiscover -in graph.tsv -k 3 -sigma 100 -workers 8
//	gfddiscover -in graph.gfds -k 3 -sigma 100
//	gfddiscover -in graph.gfds -workers 4 -fragdir /tmp/frags
//
// With -serve or -cluster the -fragdir run is served: the coordinator
// listens for member announcements on a registry, and worker slots
// 1..n-1 mine from their spill files until the balancer adopts each
// slot's member at a superstep boundary. -serve starts one in-process
// member per slot, announcing over loopback exactly like gfdfrag
// -announce; -cluster ADDR chooses where the registry listens (loopback
// port 0 otherwise), so external gfdfrag -announce servers can join. A
// health monitor walks members healthy → suspect → dead; a dead member
// fails over to its spill file and leaves the map, and a recovered one
// re-announces and is adopted again. -fault, -die-after and
// -restart-after inject transport faults and member deaths into the
// in-process members, and -hedge-after races slow remote join shares
// against the local spill replica. The mining output must stay
// identical in every configuration.
//
//	gfddiscover -in graph.gfds -workers 4 -fragdir /tmp/frags -serve
//	gfddiscover -in graph.gfds -workers 4 -fragdir /tmp/frags -serve -fault drop=0.05,seed=1
//	gfddiscover -in graph.gfds -workers 3 -fragdir /tmp/frags -serve -die-after 40 -restart-after 300ms
//	gfddiscover -in graph.gfds -workers 3 -fragdir /tmp/frags -cluster 127.0.0.1:7700
//	gfddiscover -in graph.gfds -workers 3 -fragdir /tmp/frags -cluster :7700 -hedge-after 50ms -health-interval 200ms
//
// Observability: -trace writes a structured JSONL span log of the run
// (levels, supersteps, shares, hedge races, failovers — summarize with
// gfdbench -trace-report), and -debug-addr serves /metrics (Prometheus
// text), /cluster (membership + RTT quantiles, served runs) and
// /debug/pprof live while the run executes. Neither changes the mined
// output.
//
//	gfddiscover -in graph.gfds -workers 4 -trace run.jsonl -debug-addr 127.0.0.1:6060
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	gfdlib "repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/remote"
)

func main() { os.Exit(run()) }

// run is the real main: it returns the exit status instead of calling
// os.Exit so deferred cleanup — notably flushing the pprof profiles —
// always runs.
func run() int {
	in := flag.String("in", "", "input graph, TSV or snapshot (.gfds), auto-detected (overrides -dataset)")
	ds := flag.String("dataset", "yago2", "built-in dataset: yago2 | dbpedia | imdb | synthetic")
	scale := flag.Int("scale", 500, "dataset generator scale")
	seed := flag.Int64("seed", 42, "generator seed")
	k := flag.Int("k", 3, "pattern variable bound k")
	sigma := flag.Int("sigma", 25, "support threshold σ")
	maxX := flag.Int("maxx", 1, "max LHS literals on positive GFDs")
	workers := flag.Int("workers", 0, "simulated cluster workers (0 = sequential)")
	fragDir := flag.String("fragdir", "", "spill fragments as snapshots to this dir (reused when it already holds this graph's cut) and mine over the mmap-backed views (needs -workers)")
	serve := flag.Bool("serve", false, "serve workers 1..n-1 from in-process fragment servers that announce to the coordinator's registry (needs -fragdir, -workers >= 2)")
	faultSpec := flag.String("fault", "", "with -serve: inject transport faults, e.g. drop=0.05,corrupt=0.01,seed=1")
	clusterAddr := flag.String("cluster", "", "serve the membership registry on this address so gfdfrag -announce servers can join (needs -fragdir, -workers >= 2; -serve alone listens on loopback port 0)")
	clusterWait := flag.Duration("cluster-wait", 30*time.Second, "with -serve/-cluster: how long to wait for workers 1..n-1 to announce before mining starts")
	hedgeAfter := flag.Duration("hedge-after", 0, "with -serve/-cluster: race remote join shares outstanding past this delay against the local spill replica")
	healthInterval := flag.Duration("health-interval", time.Second, "with -serve/-cluster: heartbeat cadence of the member health monitor")
	dieAfter := flag.Int("die-after", 0, "with -serve: kill every in-process fragment server after serving this many frames (forces failover)")
	restartAfter := flag.Duration("restart-after", 0, "with -serve and -die-after: resurrect dead servers on their address after this delay; they re-announce and are adopted again")
	negatives := flag.Int("negatives", 50, "max negative GFDs to mine (-1 disables)")
	showAll := flag.Bool("all", false, "print the full mined set, not just the cover")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	tracePath := flag.String("trace", "", "write a structured span trace of the run to this JSONL file (summarize with gfdbench -trace-report)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection (/metrics, /cluster, /debug/pprof) on this address for the run")
	flag.Parse()

	prof, err := gfdlib.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
		return 1
	}
	defer prof.Stop()

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer, err = obs.StartTrace(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 1
		}
		defer tracer.Close()
	}

	g, err := gfdlib.LoadOrGenerate(*in, *ds, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
		return 1
	}
	fmt.Printf("graph: %v\n", g)

	opts := gfdlib.DiscoverOptions(*k, *sigma)
	opts.MaxX = *maxX
	opts.MaxNegatives = *negatives
	opts.Trace = tracer

	// A served run owns the debug endpoint itself (it serves /cluster from
	// the live registry); every other run gets metrics and pprof.
	served := *serve || *clusterAddr != ""
	if served && (*fragDir == "" || *workers < 2) {
		fmt.Fprintln(os.Stderr, "gfddiscover: -serve and -cluster require -fragdir and -workers >= 2")
		return 2
	}
	if *debugAddr != "" && !served {
		ds, err := obs.ServeDebug(*debugAddr, obs.Default, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: debug listen %s: %v\n", *debugAddr, err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "gfddiscover: debug endpoint on http://%s\n", ds.Addr())
	}

	start := time.Now()
	var report *gfdlib.Report
	if *fragDir != "" {
		fault, err := remote.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 2
		}
		rt := gfdlib.Runtime{
			Addr:           *clusterAddr,
			Fault:          fault,
			DieAfter:       *dieAfter,
			RestartAfter:   *restartAfter,
			WaitTimeout:    *clusterWait,
			HedgeAfter:     *hedgeAfter,
			HealthInterval: *healthInterval,
			DebugAddr:      *debugAddr,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "gfddiscover: "+format+"\n", args...)
			},
		}
		report, err = gfdlib.DiscoverFragments(g, opts, *workers, *fragDir, *serve, rt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfddiscover: %v\n", err)
			return 1
		}
		if served {
			fmt.Printf("cluster run: %d/%d members at epoch %d, %d adoptions (%d wire bytes measured)\n",
				report.Members, *workers-1, report.Epoch, report.Adoptions, report.MeasuredBytes)
			if report.FailedOver > 0 || report.Rejoined > 0 {
				fmt.Printf("recovery: %d fragments failed over, %d rejoined\n", report.FailedOver, report.Rejoined)
			}
		} else {
			fmt.Printf("fragments spilled to and re-attached from %s (mmap-backed views)\n", *fragDir)
		}
	} else {
		report = gfdlib.Discover(g, opts, *workers)
	}
	fmt.Printf("mined %d positives, %d negatives in %v (%d patterns, %d candidates)\n",
		report.Positives, report.Negatives, time.Since(start).Round(time.Millisecond),
		report.Patterns, report.Candidates)
	if report.SimulatedTime > 0 {
		fmt.Printf("simulated parallel response time (n=%d): %v\n", *workers, report.SimulatedTime.Round(time.Microsecond))
		fmt.Printf("fragment-local CSR views (edges per worker): %v\n", report.FragmentEdges)
	}
	if report.StealChunks > 0 || report.HedgesFired > 0 {
		fmt.Printf("work: %d steal chunks, %d hedged reads fired (%d won by the local replica)\n",
			report.StealChunks, report.HedgesFired, report.HedgesWon)
	}
	fmt.Printf("cover: %d GFDs\n\n", len(report.Cover))
	for _, m := range report.Cover {
		fmt.Println(" ", m.Describe())
	}
	if *showAll {
		fmt.Printf("\nfull mined set (%d):\n", len(report.All))
		for _, m := range report.All {
			fmt.Println(" ", m.Describe())
		}
	}
	return 0
}
