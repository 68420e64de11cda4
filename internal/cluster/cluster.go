// Package cluster simulates the shared-nothing cluster the paper's
// parallel algorithms run on (Section 6: a master S_c and n workers
// P_1..P_n over a fragmented graph, executing in supersteps).
//
// The reproduction host has a single CPU core, so real wall-clock speedup
// from more goroutines is physically impossible. The engine therefore
// supports two execution modes:
//
//   - Makespan (default): workers execute sequentially; the engine measures
//     each worker's busy time and advances a simulated clock per superstep
//     by the *maximum* worker busy time plus a communication charge — the
//     standard BSP cost model (compute makespan + h·g + latency·rounds).
//     This reproduces exactly what the paper's scalability experiments
//     measure: how per-superstep response time falls as n grows and how
//     skew hurts it.
//
//   - Concurrent: workers run as goroutines and the superstep cost is real
//     elapsed time. Useful on multi-core hosts.
//
// Communication is declared, not performed (workers share memory): code
// calls Ship/ShipAll to record message volume, and the cost model converts
// bytes and rounds into simulated time.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Mode selects the execution/accounting strategy.
type Mode int

const (
	// Makespan runs workers sequentially and charges the per-superstep
	// maximum busy time to the simulated clock.
	Makespan Mode = iota
	// Concurrent runs workers as goroutines and charges elapsed time.
	Concurrent
)

// Config configures an Engine.
type Config struct {
	// Workers is n, the number of workers (≥ 1).
	Workers int
	// Mode selects makespan simulation or concurrent execution.
	Mode Mode
	// BytesPerSecond is the modelled per-link bandwidth (default 1 GiB/s,
	// the effective throughput of the paper's EC2 m4.xlarge instances).
	BytesPerSecond float64
	// RoundLatency is the modelled latency of one communication round
	// (default 100µs, typical intra-datacenter RTT).
	RoundLatency time.Duration
	// Obs is the metrics registry the engine accounts into. nil means a
	// fresh private registry, keeping engines isolated from each other
	// (tests); the CLIs pass obs.Default so /metrics sees the run. The
	// registry must be enabled: hedge statistics live only in it (Stats
	// reconstructs them from the registry counters).
	Obs *obs.Registry
	// Trace, when non-nil, receives superstep/master spans for the run's
	// JSONL span log.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BytesPerSecond <= 0 {
		c.BytesPerSecond = 1 << 30
	}
	if c.RoundLatency <= 0 {
		c.RoundLatency = 100 * time.Microsecond
	}
	return c
}

// Stats aggregates the simulated cost of a run.
type Stats struct {
	Supersteps  int
	ComputeTime time.Duration // Σ per-superstep max worker busy time
	CommTime    time.Duration // Σ communication charges
	MasterTime  time.Duration // master-side (sequential) work
	Bytes       int64         // total bytes shipped
	// MeasuredBytes is the subset of Bytes observed on a real transport
	// (remote fragment wire traffic) rather than declared by the cost
	// model — nonzero only when remote workers participate.
	MeasuredBytes int64
	Messages      int64
	// HedgesFired counts remote join shares whose wait exceeded the hedge
	// delay and were concurrently recomputed from the local replica;
	// HedgesWon counts those where the local recompute finished first.
	// The shares are byte-identical either way — hedging trades duplicate
	// work for tail latency, never output.
	HedgesFired, HedgesWon int64
	// WorkerBusy is the total busy time per worker, for skew inspection.
	WorkerBusy []time.Duration
}

// Total returns the simulated parallel response time.
func (s Stats) Total() time.Duration { return s.ComputeTime + s.CommTime + s.MasterTime }

// Skew returns max/mean worker busy time (1.0 = perfectly balanced).
func (s Stats) Skew() float64 {
	if len(s.WorkerBusy) == 0 {
		return 1
	}
	var sum, max time.Duration
	for _, b := range s.WorkerBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.WorkerBusy))
	return float64(max) / mean
}

// Engine is a simulated cluster. Create with New; methods are safe for use
// from the single orchestrating goroutine (workers themselves may run
// concurrently in Concurrent mode, but the engine API is called from the
// orchestrator).
type Engine struct {
	cfg   Config
	stats Stats

	mu        sync.Mutex
	stepBytes []int64 // per-worker bytes in the open accounting scope
	stepMsgs  int64

	// Hedge and ping accounting live in the metrics registry — one
	// accounting plane shared with /metrics — with Stats() reconstructing
	// the hedge fields from their handles.
	trace        *obs.Tracer
	mSupersteps  *obs.Counter
	hSuperstep   *obs.Histogram
	hMaster      *obs.Histogram
	mBytes       *obs.Counter
	mMessages    *obs.Counter
	mHedgesFired *obs.Counter
	mHedgesWon   *obs.Counter
	hPing        *obs.Histogram

	// Registry handles are shared process-wide when Config.Obs is a
	// common registry (obs.Default), so per-run Stats are reported as
	// deltas against the values at engine creation.
	baseHedgesFired, baseHedgesWon int64
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:          cfg,
		stats:        Stats{WorkerBusy: make([]time.Duration, cfg.Workers)},
		stepBytes:    make([]int64, cfg.Workers),
		trace:        cfg.Trace,
		mSupersteps:  reg.Counter("gfd_cluster_supersteps_total"),
		hSuperstep:   reg.Histogram("gfd_cluster_superstep_seconds"),
		hMaster:      reg.Histogram("gfd_cluster_master_seconds"),
		mBytes:       reg.Counter("gfd_cluster_bytes_shipped_total"),
		mMessages:    reg.Counter("gfd_cluster_messages_total"),
		mHedgesFired: reg.Counter("gfd_cluster_hedges_fired_total"),
		mHedgesWon:   reg.Counter("gfd_cluster_hedges_won_total"),
		hPing:        reg.Histogram("gfd_cluster_ping_rtt_seconds"),
	}
	e.baseHedgesFired = e.mHedgesFired.Value()
	e.baseHedgesWon = e.mHedgesWon.Value()
	return e
}

// Workers returns n.
func (e *Engine) Workers() int { return e.cfg.Workers }

// IsConcurrent reports whether supersteps run their worker functions as
// real goroutines (Concurrent mode) rather than sequentially with
// simulated makespan accounting. Cross-worker schemes like work stealing
// are only sound in Concurrent mode: under Makespan the workers run one
// after another and stealing would corrupt per-worker busy attribution.
func (e *Engine) IsConcurrent() bool { return e.cfg.Mode == Concurrent }

// Stats returns a copy of the accumulated statistics. Hedge fields are
// reconstructed from the metrics registry (as deltas against engine
// creation, since the registry may be shared process-wide); the rest is
// guarded by the engine mutex.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	s.WorkerBusy = append([]time.Duration(nil), e.stats.WorkerBusy...)
	e.mu.Unlock()
	s.HedgesFired = e.mHedgesFired.Value() - e.baseHedgesFired
	s.HedgesWon = e.mHedgesWon.Value() - e.baseHedgesWon
	return s
}

// Ship records a shipment of nbytes received by worker w (use the receiver
// side: the BSP h-relation charges the maximum per-worker volume).
func (e *Engine) Ship(w int, nbytes int64) {
	e.mu.Lock()
	e.stepBytes[w] += nbytes
	e.stepMsgs++
	e.stats.Bytes += nbytes
	e.stats.Messages++
	e.mu.Unlock()
	e.mBytes.Add(nbytes)
	e.mMessages.Inc()
}

// ShipMeasured records a shipment whose size was measured on a real
// transport (bytes counted on a remote fragment's connection) instead of
// declared by the simulation's cost model. It charges the h-relation
// exactly like Ship and additionally tallies Stats.MeasuredBytes, so a
// mixed local/remote run reports how much of its communication volume
// was real wire traffic.
func (e *Engine) ShipMeasured(w int, nbytes int64) {
	if nbytes <= 0 {
		return
	}
	e.mu.Lock()
	e.stepBytes[w] += nbytes
	e.stepMsgs++
	e.stats.Bytes += nbytes
	e.stats.MeasuredBytes += nbytes
	e.stats.Messages++
	e.mu.Unlock()
	e.mBytes.Add(nbytes)
	e.mMessages.Inc()
}

// RecordHedges tallies hedged replica reads drained from a remote
// fragment's counters: fired = hedges launched, won = hedges whose local
// recompute beat the wire. Stored only in the metrics registry — one
// accounting plane — and reconstructed by Stats.
func (e *Engine) RecordHedges(fired, won int64) {
	if fired == 0 && won == 0 {
		return
	}
	e.mHedgesFired.Add(fired)
	e.mHedgesWon.Add(won)
}

// RecordPing records one measured heartbeat round trip in the registry's
// RTT histogram, served on /metrics (the health layer's rolling quantile
// sees each sample individually).
func (e *Engine) RecordPing(rtt time.Duration) {
	e.hPing.Observe(int64(rtt))
}

// ShipAll records a broadcast of nbytes to every worker.
func (e *Engine) ShipAll(nbytes int64) {
	for w := 0; w < e.cfg.Workers; w++ {
		e.Ship(w, nbytes)
	}
}

// drainComm closes the open communication scope and returns its charge.
func (e *Engine) drainComm(rounds int) time.Duration {
	e.mu.Lock()
	var maxBytes int64
	for w := range e.stepBytes {
		if e.stepBytes[w] > maxBytes {
			maxBytes = e.stepBytes[w]
		}
		e.stepBytes[w] = 0
	}
	e.mu.Unlock()
	d := time.Duration(float64(maxBytes)/e.cfg.BytesPerSecond*float64(time.Second)) +
		time.Duration(rounds)*e.cfg.RoundLatency
	return d
}

// Superstep executes fn(w) for every worker and advances the simulated
// clock: max busy time (Makespan) or elapsed time (Concurrent), plus the
// communication charge of everything Shipped during the step (one round).
func (e *Engine) Superstep(name string, fn func(w int)) {
	sp := e.trace.StartScope("superstep", "step", name)
	wall := time.Now()
	e.stats.Supersteps++
	switch e.cfg.Mode {
	case Concurrent:
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < e.cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w)
			}(w)
		}
		wg.Wait()
		el := time.Since(start)
		e.stats.ComputeTime += el
		for w := range e.stats.WorkerBusy {
			e.stats.WorkerBusy[w] += el
		}
	default: // Makespan
		var max time.Duration
		for w := 0; w < e.cfg.Workers; w++ {
			start := time.Now()
			fn(w)
			busy := time.Since(start)
			e.stats.WorkerBusy[w] += busy
			if busy > max {
				max = busy
			}
		}
		e.stats.ComputeTime += max
	}
	e.stats.CommTime += e.drainComm(1)
	e.mSupersteps.Inc()
	e.hSuperstep.ObserveSince(wall)
	sp.End()
}

// Account advances the simulated clock directly from externally measured
// per-worker busy durations plus the shipped bytes of the open scope.
// Used when worker work is interleaved with master work at a finer grain
// than whole supersteps (e.g. batched candidate validation).
func (e *Engine) Account(name string, busy []time.Duration, rounds int) {
	if len(busy) != e.cfg.Workers {
		panic(fmt.Sprintf("cluster: Account(%q): %d busy entries for %d workers", name, len(busy), e.cfg.Workers))
	}
	e.stats.Supersteps += rounds
	var max time.Duration
	for w, b := range busy {
		e.stats.WorkerBusy[w] += b
		if b > max {
			max = b
		}
	}
	e.stats.ComputeTime += max
	e.stats.CommTime += e.drainComm(rounds)
	e.mSupersteps.Add(int64(rounds))
	e.hSuperstep.Observe(int64(max))
	e.trace.Event("account", "step", name)
}

// Master measures fn as sequential master-side work.
func (e *Engine) Master(name string, fn func()) {
	sp := e.trace.Start("master", "step", name)
	start := time.Now()
	fn()
	e.stats.MasterTime += time.Since(start)
	e.hMaster.ObserveSince(start)
	sp.End()
}
