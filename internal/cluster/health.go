package cluster

import (
	"sort"
	"sync"
	"time"
)

// HealthState is a member's position in the healthy → suspect → dead
// ladder the monitor drives from heartbeat observations.
type HealthState int32

const (
	// Healthy: heartbeats arrive and round trips sit inside the member's
	// own rolling distribution.
	Healthy HealthState = iota
	// Suspect: missed heartbeats or tail round trips. The member still
	// serves, but the router treats it pessimistically (hedges fire
	// sooner).
	Suspect
	// Dead: enough consecutive misses to declare the member gone. Dead is
	// latched until ObserveRejoin — the member's re-announcement and the
	// coordinator's validated adoption, not the health ladder, decide when
	// a dead member is trustworthy again.
	Dead
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// HealthConfig tunes the per-member state machine.
type HealthConfig struct {
	// SuspectMisses consecutive missed heartbeats mark the member
	// suspect. Default 1.
	SuspectMisses int
	// DeadMisses consecutive missed heartbeats declare it dead. Default 3.
	DeadMisses int
	// RTTWindow is the rolling round-trip sample window. Default 32.
	RTTWindow int
	// RTTQuantile (0,1] and RTTFactor: a round trip beyond
	// RTTFactor × the window's RTTQuantile marks the member suspect even
	// though the heartbeat arrived — the slow-but-alive case hedging
	// targets. Defaults 0.9 and 4.
	RTTQuantile float64
	// RTTFactor is the spike multiplier over the rolling quantile.
	RTTFactor float64
	// MinRTTSamples gates the spike rule until the window has enough
	// history to mean anything. Default 8.
	MinRTTSamples int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.SuspectMisses <= 0 {
		c.SuspectMisses = 1
	}
	if c.DeadMisses <= 0 {
		c.DeadMisses = 3
	}
	if c.DeadMisses < c.SuspectMisses {
		c.DeadMisses = c.SuspectMisses
	}
	if c.RTTWindow <= 0 {
		c.RTTWindow = 32
	}
	if c.RTTQuantile <= 0 || c.RTTQuantile > 1 {
		c.RTTQuantile = 0.9
	}
	if c.RTTFactor <= 1 {
		c.RTTFactor = 4
	}
	if c.MinRTTSamples <= 0 {
		c.MinRTTSamples = 8
	}
	return c
}

// Health is one member's state machine. It is deliberately clock-free:
// the monitor observes (a heartbeat round trip, a miss, a rejoin) and the
// machine transitions — cadence lives with the caller, which is what lets
// tests drive the full transition table under a fake clock.
type Health struct {
	mu     sync.Mutex
	cfg    HealthConfig
	state  HealthState
	misses int
	window []time.Duration // rolling RTT ring
	next   int             // ring write cursor
	filled int
}

// NewHealth returns a Healthy member with an empty RTT history.
func NewHealth(cfg HealthConfig) *Health {
	cfg = cfg.withDefaults()
	return &Health{cfg: cfg, window: make([]time.Duration, cfg.RTTWindow)}
}

// State returns the current state.
func (h *Health) State() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// ObserveRTT records a successful heartbeat round trip and returns the
// resulting state: misses reset, and a round trip spiking beyond
// RTTFactor × the rolling RTTQuantile of the member's own history marks
// it Suspect (slow-but-alive), otherwise Healthy. A Dead member stays
// Dead — answering one ping does not un-declare it; rejoin goes through
// a validated adoption and ObserveRejoin.
func (h *Health) ObserveRTT(rtt time.Duration) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.misses = 0
	spike := false
	if h.filled >= h.cfg.MinRTTSamples {
		q := h.quantileLocked()
		spike = q > 0 && float64(rtt) > h.cfg.RTTFactor*float64(q)
	}
	h.window[h.next] = rtt
	h.next = (h.next + 1) % len(h.window)
	if h.filled < len(h.window) {
		h.filled++
	}
	if h.state == Dead {
		return Dead
	}
	if spike {
		h.state = Suspect
	} else {
		h.state = Healthy
	}
	return h.state
}

// ObserveMiss records a missed heartbeat and returns the resulting
// state: SuspectMisses consecutive misses mark Suspect, DeadMisses mark
// Dead (latched).
func (h *Health) ObserveMiss() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.misses++
	if h.state == Dead {
		return Dead
	}
	switch {
	case h.misses >= h.cfg.DeadMisses:
		h.state = Dead
	case h.misses >= h.cfg.SuspectMisses:
		h.state = Suspect
	}
	return h.state
}

// ObserveRejoin resets a Dead member to Healthy after a validated
// adoption: miss count and RTT history restart from scratch — a
// recovered server's latency profile owes nothing to its previous life.
func (h *Health) ObserveRejoin() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state = Healthy
	h.misses = 0
	h.filled = 0
	h.next = 0
}

// RTTQuantile returns the q-quantile (q in [0,1]) of the member's
// rolling round-trip window, or 0 with no samples yet. Serves the
// /cluster introspection endpoint; the state machine itself uses the
// configured RTTQuantile internally.
func (h *Health) RTTQuantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.filled
	if n == 0 {
		return 0
	}
	s := make([]time.Duration, n)
	copy(s, h.window[:n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return s[int(q*float64(n-1))]
}

// quantileLocked returns the RTTQuantile of the filled window.
func (h *Health) quantileLocked() time.Duration {
	n := h.filled
	if n == 0 {
		return 0
	}
	s := make([]time.Duration, n)
	copy(s, h.window[:n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(h.cfg.RTTQuantile * float64(n-1))
	return s[idx]
}
