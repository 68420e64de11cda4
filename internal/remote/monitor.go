package remote

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// MonitorOptions configures the health monitor.
type MonitorOptions struct {
	// Interval is the heartbeat cadence per watched member (default 1s).
	// Each ping is bounded by the same interval, so a stalled server
	// turns into a miss rather than a stuck probe loop.
	Interval time.Duration
	// Health tunes the per-member healthy → suspect → dead state machine.
	Health cluster.HealthConfig
	// Clock abstracts the cadence sleeps (tests inject a fake).
	Clock Clock
	// RecordRTT, if set, receives every measured heartbeat round trip
	// (the cluster engine tallies them into its Stats).
	RecordRTT func(worker int, rtt time.Duration)
	// OnDead, if set, fires once per dead declaration — after the
	// fragment has failed over to its local attach. The cluster runtime
	// uses it to remove the member from the registry.
	OnDead func(worker int, rf *RemoteFragment)
	// Logf, if set, receives one line per state transition.
	Logf func(format string, args ...any)
	// Trace, when non-nil, receives a health event per state transition.
	Trace *obs.Tracer
}

func (o MonitorOptions) withDefaults() MonitorOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// Monitor drives the per-member health state machine from periodic
// heartbeats: each watched fragment gets its own probe loop measuring
// ping round trips. Misses and tail round trips walk the member down
// the healthy → suspect → dead ladder (cluster.Health); suspect
// tightens the member's hedge delay, dead triggers the existing
// failover path and reports up so the registry can drop the member. A
// fragment that the balancer adopts again (a validated rejoin) resets its
// machine to healthy.
type Monitor struct {
	opts   MonitorOptions
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	health  map[int]*cluster.Health
	watched map[int]*RemoteFragment
}

// NewMonitor returns a monitor with no watched members; ctx bounds all
// probe loops.
func NewMonitor(ctx context.Context, opts MonitorOptions) *Monitor {
	ictx, cancel := context.WithCancel(ctx)
	return &Monitor{
		opts:    opts.withDefaults(),
		ctx:     ictx,
		cancel:  cancel,
		health:  make(map[int]*cluster.Health),
		watched: make(map[int]*RemoteFragment),
	}
}

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Watch starts (or keeps) a probe loop for the fragment's worker slot.
// Re-watching a slot — after a balancer adoption pointed its fragment
// at a replacement member — resets its health machine to a clean
// healthy state; the replacement's latency profile owes nothing to its
// predecessor's.
func (m *Monitor) Watch(rf *RemoteFragment) {
	w := rf.Info().Worker
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.watched[w]; ok {
		if prev == rf {
			m.health[w].ObserveRejoin()
			rf.SetSuspect(false)
			return
		}
		// A different fragment object for the same slot: the old loop
		// notices and exits; start fresh.
	}
	h := cluster.NewHealth(m.opts.Health)
	m.health[w] = h
	m.watched[w] = rf
	m.wg.Add(1)
	go m.loop(w, rf, h)
}

// State returns the worker slot's current health state (Healthy for an
// unwatched slot: no evidence against it).
func (m *Monitor) State(worker int) cluster.HealthState {
	m.mu.Lock()
	h := m.health[worker]
	m.mu.Unlock()
	if h == nil {
		return cluster.Healthy
	}
	return h.State()
}

// RTTQuantile returns the q-quantile of the worker slot's rolling
// heartbeat round-trip window (0 for an unwatched slot or an empty
// window). Serves the /cluster introspection endpoint.
func (m *Monitor) RTTQuantile(worker int, q float64) time.Duration {
	m.mu.Lock()
	h := m.health[worker]
	m.mu.Unlock()
	if h == nil {
		return 0
	}
	return h.RTTQuantile(q)
}

// Close stops every probe loop and waits them out.
func (m *Monitor) Close() {
	m.cancel()
	m.wg.Wait()
}

// current reports whether rf is still the slot's watched fragment.
func (m *Monitor) current(worker int, rf *RemoteFragment) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watched[worker] == rf
}

// loop is one member's probe cadence.
func (m *Monitor) loop(worker int, rf *RemoteFragment, h *cluster.Health) {
	defer m.wg.Done()
	// Track the previous state locally so every ladder movement is
	// counted and traced exactly once.
	prev := cluster.Healthy
	transition := func(to cluster.HealthState) {
		if to == prev {
			return
		}
		healthTransition(prev, to)
		m.opts.Trace.Event("health",
			"worker", strconv.Itoa(worker), "from", prev.String(), "to", to.String())
		prev = to
	}
	for {
		if err := m.opts.Clock.Sleep(m.ctx, m.opts.Interval); err != nil {
			return
		}
		if rf.Closed() || !m.current(worker, rf) {
			return
		}
		if h.State() == cluster.Dead {
			// The fragment is on its local attach. Recovery is the member's
			// re-announcement and the balancer's boundary adoption; when an
			// adoption succeeds, fold the rejoin back into the health
			// machine and resume probing.
			if !rf.FailedOver() {
				h.ObserveRejoin()
				rf.SetSuspect(false)
				transition(cluster.Healthy)
				m.logf("monitor: worker %d rejoined; healthy again", worker)
			}
			continue
		}
		pctx, cancel := context.WithTimeout(m.ctx, m.opts.Interval)
		rtt, err := rf.PingRTT(pctx)
		cancel()
		var state cluster.HealthState
		if err != nil {
			if m.ctx.Err() != nil || rf.Closed() {
				return
			}
			state = h.ObserveMiss()
		} else {
			if m.opts.RecordRTT != nil {
				m.opts.RecordRTT(worker, rtt)
			}
			state = h.ObserveRTT(rtt)
		}
		transition(state)
		switch state {
		case cluster.Healthy:
			if rf.Suspect() {
				m.logf("monitor: worker %d healthy again", worker)
			}
			rf.SetSuspect(false)
		case cluster.Suspect:
			if !rf.Suspect() {
				m.logf("monitor: worker %d suspect (err=%v rtt=%s); hedging sooner", worker, err, rtt)
			}
			rf.SetSuspect(true)
		case cluster.Dead:
			cause := err
			if cause == nil {
				cause = fmt.Errorf("remote: health monitor declared worker %d dead", worker)
			}
			if ferr := rf.FailOver(cause); ferr != nil {
				m.logf("monitor: worker %d dead but cannot fail over: %v", worker, ferr)
				continue
			}
			m.logf("monitor: worker %d dead (%v); failed over", worker, cause)
			if m.opts.OnDead != nil {
				m.opts.OnDead(worker, rf)
			}
		}
	}
}
