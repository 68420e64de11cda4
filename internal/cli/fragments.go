package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/remote"
	"repro/internal/store"
)

// Runtime configures the served side of DiscoverFragments: where the
// membership registry listens, what the in-process members inject, and
// how the coordinator waits for, watches and hedges its members.
type Runtime struct {
	// Addr is the registry listen address (host:port; port 0 picks one).
	// Setting it makes the run served even without in-process members:
	// external gfdfrag -announce servers join the registry here. A run
	// with in-process members and no Addr listens on loopback port 0.
	Addr string
	// Fault wraps every in-process member's connections for chaos
	// testing.
	Fault remote.FaultSpec
	// DieAfter, when positive, makes every in-process member die abruptly
	// after serving that many frames: the coordinator sees a mid-mine
	// worker loss and fails the slot over to its spill file.
	DieAfter int
	// RestartAfter, when positive alongside DieAfter, brings each dead
	// in-process member back on its address after this delay (it dies
	// once). It re-announces, and the balancer adopts it at the next
	// superstep boundary.
	RestartAfter time.Duration
	// WaitTimeout bounds the wait for workers 1..n-1 to announce before
	// mining starts (default 30s). Timing out is not an error: slots
	// still empty mine from their spill files until a member announces.
	WaitTimeout time.Duration
	// HedgeAfter enables hedged replica reads on every slot; see
	// remote.Options.HedgeAfter. Zero disables hedging.
	HedgeAfter time.Duration
	// HealthInterval is the member heartbeat cadence (default 1s).
	HealthInterval time.Duration
	// DebugAddr, when non-empty, serves the live introspection endpoint
	// (/metrics, /cluster, /debug/pprof) on this address for the whole
	// run. It comes up before the member wait, so the cluster is
	// observable while it assembles.
	DebugAddr string
	// Logf, if set, receives membership, health, balancer, failover and
	// member lifecycle lines.
	Logf func(format string, args ...any)
}

// DiscoverFragments runs ParDis over a persistent vertex cut of v in
// dir, as one pipeline: cut → (serve/announce) → mine.
//
// The cut is reused when dir already holds v's exact snapshot cut for
// this worker count, and spilled afresh otherwise — unless rt.Addr is
// set: external members may have dir's files mapped, so a directory
// holding a cut of anything else is refused.
//
// With serve false and no rt.Addr the workers join against the
// mmap-backed fragment views. Otherwise the run is served. The
// coordinator listens for member announcements on a registry (rt.Addr,
// or loopback port 0), and serve starts one in-process member per worker
// 1..n-1 that announces there just like gfdfrag -announce. Every slot
// 1..n-1 starts out mining from its spill file and goes remote only when
// the balancer adopts its member at a superstep boundary — the first
// boundary, for members that announced during the wait. A health monitor
// watches adopted members; a dead one fails over to its spill file and
// leaves the map, and a member that re-announces is adopted again.
// Worker 0 is always the coordinator's local view, and the mining output
// is byte-identical in every configuration.
//
// Every fragment, member, monitor and endpoint the run starts is closed
// before it returns. On success the attached cut stays mapped for the
// process: the report's mined GFDs hold strings that alias it.
func DiscoverFragments(v graph.View, opts discovery.Options, workers int, dir string, serve bool, rt Runtime) (*Report, error) {
	src, ok := v.(store.Source)
	if !ok {
		return nil, fmt.Errorf("cli: %T is not serialisable as a snapshot", v)
	}
	served := serve || rt.Addr != ""
	if workers < 1 || served && workers < 2 {
		return nil, fmt.Errorf("cli: %d workers; fragment mining needs >= 1, served mining >= 2 (worker 0 stays local)", workers)
	}
	att, err := ensureCut(src, workers, dir, rt.Addr != "")
	if err != nil {
		return nil, err
	}
	eng := cluster.New(cluster.Config{Workers: workers, Obs: obs.Default, Trace: opts.Trace})
	frags := att.Frags
	popts := parallel.Options{LoadBalance: true}
	var c *coordinator
	if served {
		if c, err = startCoordinator(att, dir, serve, rt, opts.Trace, eng); err != nil {
			att.Close()
			return nil, err
		}
		defer c.close()
		frags = append([]parallel.Fragment(nil), att.Frags...)
		for i, rf := range c.slots {
			frags[i+1].Sub = rf
		}
		popts.Membership = c.bal
	}

	steal0 := stealChunkTotal()
	pr := parallel.MineFragments(context.Background(), att.Graph, frags, opts, eng, popts)
	rep := &Report{
		SimulatedTime: pr.Cluster.Total(),
		FragmentEdges: pr.FragmentEdges,
		MeasuredBytes: pr.Cluster.MeasuredBytes,
		HedgesFired:   pr.Cluster.HedgesFired,
		HedgesWon:     pr.Cluster.HedgesWon,
		StealChunks:   stealChunkTotal() - steal0,
	}
	if c != nil {
		c.mon.Close() // no leave may land after the report reads the map
		rep.Members, rep.Epoch = c.reg.Size(), c.reg.Epoch()
		rep.Adoptions, rep.Rejoined = c.bal.Adoptions(), c.bal.Rejoins()
		for _, rf := range c.slots {
			if rf.FailedOver() {
				rep.FailedOver++
			}
		}
	}
	rep.fill(pr.Result)
	return rep, nil
}

// ensureCut attaches dir's cut of src for this worker count. A cut is
// reused only when dir's graph snapshot is byte-identical to src's
// encoding: Attach's checks and the node-store fingerprint cover labels
// and symbol pools, not edges or attribute values. Anything else is
// spilled afresh, unless external members may be serving dir's fragment
// files: rewriting those under them would corrupt every announced
// member, so a cut of something else is refused instead.
func ensureCut(src store.Source, workers int, dir string, external bool) (*parallel.Attached, error) {
	if att, err := parallel.Attach(dir); err == nil {
		if att.Workers() == workers && holdsSnapshot(filepath.Join(dir, parallel.GraphSnapshotName), src) {
			return att, nil
		}
		att.Close()
		if external {
			return nil, fmt.Errorf("cli: %s holds a different cut (want %d fragments of this graph); refusing to overwrite a directory announced servers may be serving — point -fragdir elsewhere or remove it", dir, workers)
		}
	}
	if err := parallel.Spill(dir, src, parallel.VertexCut(src, workers)); err != nil {
		return nil, err
	}
	return parallel.Attach(dir)
}

// holdsSnapshot reports whether the file at path holds exactly src's
// snapshot encoding, compared as the encoder streams it out.
func holdsSnapshot(path string, src store.Source) bool {
	want, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	w := &prefixWriter{want: want}
	return store.Write(w, src) == nil && len(w.want) == 0
}

var errSnapshotDiffers = errors.New("cli: snapshot differs")

// prefixWriter consumes want as bytes are written to it and fails at the
// first write that does not match.
type prefixWriter struct{ want []byte }

func (w *prefixWriter) Write(p []byte) (int, error) {
	if len(p) > len(w.want) || !bytes.Equal(p, w.want[:len(p)]) {
		return 0, errSnapshotDiffers
	}
	w.want = w.want[len(p):]
	return len(p), nil
}

// coordinator is the membership side of a served run: the registry
// endpoint, the health monitor and balancer, the in-process members, and
// one slot fragment per worker 1..n-1.
type coordinator struct {
	reg     *cluster.Registry
	mon     *remote.Monitor
	bal     *remote.Balancer
	slots   []*remote.RemoteFragment
	closers []func()
}

// close releases everything the coordinator started, newest first: the
// slots (ending their monitor loops), the members, the debug endpoint,
// the monitor and the registry endpoint.
func (c *coordinator) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}

// startCoordinator brings up a served run's membership side and waits
// (up to rt.WaitTimeout) for workers 1..n-1 to announce. Announcements
// are vetted against the coordinator's own attach of the cut: worker slot
// in range, matching node range, edge count and node-store fingerprint.
func startCoordinator(att *parallel.Attached, dir string, serve bool, rt Runtime, trace *obs.Tracer, eng *cluster.Engine) (c *coordinator, err error) {
	c = &coordinator{reg: cluster.NewRegistry()}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	workers := att.Workers()
	logf := rt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wantFP := remote.Fingerprint(att.Graph)
	rs := remote.NewRegistryServer(c.reg, remote.RegistryServerOptions{
		Logf: logf,
		Validate: func(a remote.AnnounceInfo) error {
			if a.Worker < 1 || a.Worker >= workers {
				return fmt.Errorf("worker %d out of range [1,%d)", a.Worker, workers)
			}
			if a.Fingerprint != wantFP {
				return fmt.Errorf("node-store fingerprint %016x, coordinator has %016x (different graph?)", a.Fingerprint, wantFP)
			}
			f := att.Frags[a.Worker]
			if a.NodeLo != f.NodeLo || a.NodeHi != f.NodeHi {
				return fmt.Errorf("owns [%d,%d), slot %d owns [%d,%d)", a.NodeLo, a.NodeHi, a.Worker, f.NodeLo, f.NodeHi)
			}
			if a.NumEdges != f.EdgeCount() {
				return fmt.Errorf("%d edges, slot %d holds %d", a.NumEdges, a.Worker, f.EdgeCount())
			}
			return nil
		},
	})
	addr := rt.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cli: registry listen %s: %w", addr, err)
	}
	go rs.Serve(l)
	c.closers = append(c.closers, func() { rs.Close() })
	regAddr := l.Addr().String()
	logf("cluster: registry listening on %s; waiting for %d member(s)", regAddr, workers-1)

	interval := rt.HealthInterval
	if interval <= 0 {
		interval = time.Second
	}
	c.mon = remote.NewMonitor(context.Background(), remote.MonitorOptions{
		Interval:  interval,
		Logf:      logf,
		Trace:     trace,
		RecordRTT: func(_ int, rtt time.Duration) { eng.RecordPing(rtt) },
		OnDead: func(w int, _ *remote.RemoteFragment) {
			// A dead member leaves the map so a replacement (or the
			// member's own recovered incarnation) can claim the slot.
			if _, err := c.reg.Leave(w, c.reg.Epoch()); err != nil {
				logf("cluster: leave for worker %d refused: %v", w, err)
			}
		},
	})
	c.closers = append(c.closers, c.mon.Close)
	c.bal = remote.NewBalancer(c.reg, c.mon, logf)

	if rt.DebugAddr != "" {
		ds, err := obs.ServeDebug(rt.DebugAddr, obs.Default, c.info(workers))
		if err != nil {
			return nil, fmt.Errorf("cli: debug listen %s: %w", rt.DebugAddr, err)
		}
		c.closers = append(c.closers, func() { ds.Close() })
		logf("cluster: debug endpoint on http://%s (/metrics /cluster /debug/pprof)", ds.Addr())
	}

	if serve {
		ctx, stop := context.WithCancel(context.Background())
		var members sync.WaitGroup
		c.closers = append(c.closers, func() {
			stop()
			members.Wait()
		})
		sopts := remote.ServerOptions{Fault: rt.Fault, DieAfter: rt.DieAfter, Logf: logf}
		for w := 1; w < workers; w++ {
			members.Add(1)
			go func() {
				defer members.Done()
				path := filepath.Join(dir, parallel.FragmentSnapshotName(w))
				if err := remote.ServeFragment(ctx, path, "127.0.0.1:0", regAddr, rt.RestartAfter, sopts, nil); err != nil {
					logf("cluster: member %d: %v", w, err)
				}
			}()
		}
	}

	wait := rt.WaitTimeout
	if wait <= 0 {
		wait = 30 * time.Second
	}
	wctx, wcancel := context.WithTimeout(context.Background(), wait)
	if err := c.reg.Wait(wctx, workers-1); err != nil {
		logf("cluster: proceeding with %d/%d members after %s", c.reg.Size(), workers-1, wait)
	}
	wcancel()

	copts := remote.Options{CallTimeout: time.Second, HedgeAfter: rt.HedgeAfter, Logf: logf, Trace: trace}
	if rt.Fault.Active() || rt.DieAfter > 0 {
		// Injected faults (and deliberate member deaths) make dropped
		// responses routine, and every drop costs one CallTimeout: keep
		// the deadline tight and spend the saved time on more retry
		// attempts instead.
		copts.CallTimeout = 100 * time.Millisecond
		copts.Backoff = remote.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 12}
	}
	for w := 1; w < workers; w++ {
		rf, err := remote.NewLocalFragment(context.Background(), att.Graph, filepath.Join(dir, parallel.FragmentSnapshotName(w)), copts)
		if err != nil {
			return nil, fmt.Errorf("cli: worker %d: %w", w, err)
		}
		c.closers = append(c.closers, func() { rf.Close() })
		c.bal.Manage(rf, "")
		c.slots = append(c.slots, rf)
	}
	return c, nil
}

// info serves /cluster: the live map with each member's health state and
// heartbeat round-trip quantiles.
func (c *coordinator) info(workers int) func() obs.ClusterInfo {
	return func() obs.ClusterInfo {
		members, epoch := c.reg.Snapshot()
		info := obs.ClusterInfo{Epoch: epoch}
		for w := 1; w < workers; w++ {
			m, ok := members[w]
			if !ok {
				continue
			}
			info.Members = append(info.Members, obs.MemberInfo{
				Worker:   w,
				Addr:     m.Addr,
				State:    c.mon.State(w).String(),
				RTTp50Ms: float64(c.mon.RTTQuantile(w, 0.50)) / 1e6,
				RTTp95Ms: float64(c.mon.RTTQuantile(w, 0.95)) / 1e6,
				RTTp99Ms: float64(c.mon.RTTQuantile(w, 0.99)) / 1e6,
			})
		}
		return info
	}
}
