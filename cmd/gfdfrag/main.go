// Command gfdfrag is a ParDis fragment server: it mmaps one spilled
// fragment snapshot (frag-N.gfds, written by a coordinator's Spill) and
// serves that worker's share of the distributed incremental join over
// the remote package's frame protocol. A coordinator (gfddiscover, or
// any remote.Dial client) joins row-table batches against it exactly as
// it would against a local mmap view — the mining output is identical.
//
// The process is stateless beyond its mapping: killing it mid-mine is
// always safe, because the coordinator fails over to the same frag-N.gfds
// file the server was started from.
//
// Examples:
//
//	gfdfrag -frag /data/frags/frag-1.gfds -listen :7701
//	gfdfrag -frag frag-0.gfds -listen 127.0.0.1:0            # prints the bound port
//	gfdfrag -frag frag-2.gfds -listen :7702 -fault drop=0.05,seed=1
//	gfdfrag -frag frag-1.gfds -listen :7701 -die-after 100   # crash-test the coordinator
//	gfdfrag -frag frag-1.gfds -listen :7701 -die-after 100 -resurrect-after 500ms
//	gfdfrag -frag frag-1.gfds -listen :7701 -announce 127.0.0.1:7700
//
// With -announce the server registers itself with a coordinator's
// membership registry (gfddiscover -cluster) once it is listening: the
// coordinator learns the worker slot, address, node range, edge count
// and node-store fingerprint, validates them against its own cut, and
// routes that slot's join shares to this server at its next superstep
// boundary — including mid-run, if the coordinator was already mining
// the slot from its spill file. The announce retries with backoff, so
// starting servers before the coordinator is fine.
//
// With -resurrect-after the -die-after crash does not exit the process:
// the server drops every connection and its listener (the coordinator
// sees exactly a worker loss and fails over), then rebinds the same
// address after the delay and serves again — this time without the
// death trap — and re-announces, so the coordinator adopts the
// recovered incarnation mid-run. gfddiscover -serve runs its in-process
// members through the same lifecycle (remote.ServeFragment).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/remote"
)

func main() { os.Exit(run()) }

// run is the real main: it returns the exit status so the deferred
// profile flush always runs; the -die-after crash path flushes
// explicitly before its abrupt exit.
func run() int {
	frag := flag.String("frag", "", "fragment snapshot to serve (a frag-N.gfds written by Spill)")
	listen := flag.String("listen", "127.0.0.1:0", "listen address (port 0 picks a free port, printed on stdout)")
	fault := flag.String("fault", "", "fault injection spec: drop=P,corrupt=P,delay=D,closeafter=N,seed=S")
	dieAfter := flag.Int("die-after", 0, "exit(3) abruptly after serving this many frames (simulates a worker crash)")
	resurrectAfter := flag.Duration("resurrect-after", 0, "with -die-after: come back on the same address after this delay instead of exiting (dies once)")
	announce := flag.String("announce", "", "coordinator registry address (gfddiscover -cluster) to announce this fragment server to")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (flushed even on -die-after)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	tracePath := flag.String("trace", "", "write lifecycle events (serve, announce, die, resurrect) to this JSONL file (flushed even on -die-after)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection (/metrics, /debug/pprof) on this address")
	flag.Parse()

	if *frag == "" {
		fmt.Fprintln(os.Stderr, "gfdfrag: -frag is required")
		return 2
	}
	spec, err := remote.ParseFaultSpec(*fault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
		return 2
	}
	// tracer records the server lifecycle (serve, announce, die,
	// resurrect) when -trace is set; nil makes every call a no-op.
	var tracer *obs.Tracer
	prof, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
		return 1
	}
	defer prof.Stop()
	if *tracePath != "" {
		tracer, err = obs.StartTrace(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
			return 1
		}
		defer tracer.Close()
	}
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, obs.Default, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfdfrag: debug listen %s: %v\n", *debugAddr, err)
			return 1
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "gfdfrag: debug endpoint on http://%s\n", ds.Addr())
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gfdfrag: "+format+"\n", args...)
	}
	opts := remote.ServerOptions{
		Fault:    spec,
		DieAfter: *dieAfter,
		Logf:     logf,
	}
	if *dieAfter > 0 && *resurrectAfter <= 0 {
		opts.OnDeath = func() {
			// An abrupt exit, not a graceful drain: the coordinator must see
			// the same failure a kill -9 would produce. The profiles and the
			// span log are flushed first — a crash-test run is exactly when
			// they matter.
			fmt.Fprintf(os.Stderr, "gfdfrag: dying after %d frames (-die-after)\n", *dieAfter)
			tracer.Event("die", "frames", fmt.Sprint(*dieAfter))
			tracer.Close()
			prof.Stop()
			os.Exit(3)
		}
	}

	err = remote.ServeFragment(context.Background(), *frag, *listen, *announce, *resurrectAfter, opts, func(name, addr string) {
		// The bound address is the first stdout line — coordinators and
		// tests parse it, which is what makes -listen :0 usable.
		switch name {
		case "serve":
			fmt.Printf("listening %s\n", addr)
		case "resurrect":
			fmt.Printf("resurrected %s\n", addr)
		}
		tracer.Event(name, "addr", addr)
		tracer.Flush()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gfdfrag: %v\n", err)
		return 1
	}
	return 0
}
