package remote

import (
	"sync"

	"repro/internal/cluster"
)

// Balancer applies cluster-map changes to the coordinator's fragment
// set at superstep boundaries — the only points where re-pointing a
// fragment at a different member cannot tear a half-computed join
// share. The parallel backend calls ApplyAtBoundary before every
// superstep (via parallel.Options.Membership); between boundaries the
// map can churn freely, the mining loop never sees it mid-step.
type Balancer struct {
	reg     *cluster.Registry
	monitor *Monitor
	logf    func(format string, args ...any)

	mu        sync.Mutex
	applied   uint64 // registry epoch the fragment set last converged to
	frags     map[int]*RemoteFragment
	adopted   map[int]string // member address each slot currently targets
	adoptions int
	rejoins   int
}

// NewBalancer wires a registry to the fragments it governs. monitor may
// be nil (no health probing); logf may be nil.
func NewBalancer(reg *cluster.Registry, monitor *Monitor, logf func(format string, args ...any)) *Balancer {
	return &Balancer{
		reg:     reg,
		monitor: monitor,
		logf:    logf,
		frags:   make(map[int]*RemoteFragment),
		adopted: make(map[int]string),
	}
}

// Manage registers a fragment as the authority for its worker slot.
// addr is the member address it currently serves from ("" for a
// deferred local fragment awaiting its first member).
func (b *Balancer) Manage(rf *RemoteFragment, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := rf.Info().Worker
	b.frags[w] = rf
	b.adopted[w] = addr
}

// Adoptions returns how many times a fragment was re-pointed at a
// member mid-run.
func (b *Balancer) Adoptions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.adoptions
}

// Rejoins returns how many adoptions re-pointed a slot that a member had
// already served — a recovered server's re-announcement or a
// replacement — rather than giving a slot its first member.
func (b *Balancer) Rejoins() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejoins
}

// ApplyAtBoundary reconciles the fragment set with the current cluster
// map. Cheap no-op when the epoch has not moved since the last
// reconciliation. For each managed slot whose registered member differs
// from what the fragment targets, the fragment Adopts the member's
// address (revalidating the handshake when it was serving locally).
// Slots whose member left are not touched here — in-line failover and
// the health monitor own the leave path; the balancer only routes
// toward announced members. If the map moves again mid-apply the pass
// abandons its now-stale snapshot and waits for the next boundary.
func (b *Balancer) ApplyAtBoundary() {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap, epoch := b.reg.Snapshot()
	if epoch == b.applied {
		return
	}
	clean := true
	for w, rf := range b.frags {
		m, ok := snap[w]
		if !ok {
			continue
		}
		if !rf.FailedOver() && b.adopted[w] == m.Addr {
			continue
		}
		if cur := b.reg.Epoch(); cur != epoch {
			// The map moved under us; this snapshot is stale. Refuse to act
			// on it — the next boundary reconciles against the live map.
			if b.logf != nil {
				b.logf("balancer: cluster map moved (epoch %d → %d) mid-apply; deferring", epoch, cur)
			}
			return
		}
		if err := rf.Adopt(m.Addr); err != nil {
			if b.logf != nil {
				b.logf("balancer: worker %d: %v", w, err)
			}
			clean = false
			continue
		}
		if b.adopted[w] != "" {
			b.rejoins++
		}
		b.adopted[w] = m.Addr
		b.adoptions++
		if b.logf != nil {
			b.logf("balancer: worker %d now served by %s (epoch %d)", w, m.Addr, epoch)
		}
		if b.monitor != nil {
			b.monitor.Watch(rf)
		}
	}
	if clean {
		b.applied = epoch
	}
}
