package bench

// Remote-runtime micros: the same per-worker incremental join as
// ExtendRows/worker-n4, but with one received fragment served by a
// fragment server over loopback TCP instead of read from local memory.
// The gap between the two numbers is the whole cost of the distributed
// runtime on the hot path — encoding, framing, checksums, the TCP round
// trip, and the order-preserving merge.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/remote"
	"repro/internal/store"
)

// remoteMicroEnv serves the micro cut's first received fragment over
// loopback and holds the dialed client plus the mixed view order.
type remoteMicroEnv struct {
	once sync.Once
	err  error

	dir    string
	server *remote.Server
	mapped *store.MappedGraph
	client *remote.RemoteFragment
	// latServer/latClient serve the same fragment behind a simulated
	// latency link (FaultSpec.Delay on every response frame) — the
	// regime where pipelining vs lock-step is actually decided; on raw
	// loopback the round trip is pure CPU and there is nothing to
	// overlap.
	latServer *remote.Server
	latClient *remote.RemoteFragment
	// slowServer serves the fragment behind a degraded link
	// (hedgeLinkOneWay each way) — the straggling-member regime hedged
	// reads exist for. slowClient waits the link out unhedged;
	// hedClient dials the same link with hedged replica reads enabled
	// (HedgeAfter + FallbackPath), so every share races a local
	// recompute from the spill replica.
	slowServer *remote.Server
	slowClient *remote.RemoteFragment
	hedClient  *remote.RemoteFragment
	// views is e.views with the first received fragment replaced by the
	// remote client — the worker's join inputs in the mixed-runtime run.
	views []graph.View
	// one is the micro child as a one-child batch; four carries it four
	// times, the batch of rpc-batch-x4.
	one, four []*pattern.Pattern
}

// latencyOneWay is the simulated one-way delivery delay of the latency
// link: in the LAN RTT ballpark, and ~10x the share's compute cost so
// the serial-vs-pipelined gap measures wire waiting, not CPU.
const latencyOneWay = 200 * time.Microsecond

// hedgeLinkOneWay is the one-way delay of the degraded link behind the
// hedged-read micros: a straggling member an order of magnitude slower
// than the healthy LAN link, and comfortably above coarse-kernel timer
// slack so the slow-vs-hedged gap measures hedging rather than timer
// resolution.
const hedgeLinkOneWay = 5 * time.Millisecond

var remoteMicroE remoteMicroEnv

func remoteMicroWorkload(b *testing.B) (*microEnv, *remoteMicroEnv) {
	e := microWorkload()
	r := &remoteMicroE
	r.once.Do(func() { r.err = r.build(e) })
	if r.err != nil {
		b.Fatalf("build remote micro workload: %v", r.err)
	}
	return e, r
}

func (r *remoteMicroEnv) build(e *microEnv) error {
	src, ok := e.g.(store.Source)
	if !ok {
		return fmt.Errorf("bench: %T is not serialisable, remote micros need a snapshot", e.g)
	}
	dir, err := os.MkdirTemp("", "gfds-remote-micro-")
	if err != nil {
		return err
	}
	r.dir = dir
	if err := parallel.Spill(dir, src, e.frags); err != nil {
		return err
	}
	// Serve the first received fragment (the view the join probes right
	// after the worker's own index).
	recv := -1
	for w := range e.frags {
		if w != e.busiest {
			recv = w
			break
		}
	}
	m, err := store.Open(filepath.Join(dir, parallel.FragmentSnapshotName(recv)))
	if err != nil {
		return err
	}
	r.mapped = m
	s, err := remote.NewServer(m, remote.ServerOptions{})
	if err != nil {
		return err
	}
	r.server = s
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go s.Serve(l)
	rf, err := remote.Dial(context.Background(), l.Addr().String(), e.g, remote.Options{})
	if err != nil {
		return err
	}
	r.client = rf

	// Same fragment again behind the latency link.
	ls, err := remote.NewServer(m, remote.ServerOptions{Fault: remote.FaultSpec{Delay: latencyOneWay, Seed: 1}})
	if err != nil {
		return err
	}
	r.latServer = ls
	ll, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go ls.Serve(ll)
	lrf, err := remote.Dial(context.Background(), ll.Addr().String(), e.g, remote.Options{})
	if err != nil {
		return err
	}
	r.latClient = lrf

	// The same fragment once more behind the degraded link, dialed twice:
	// once waiting the link out, once hedging against the spill replica.
	ss, err := remote.NewServer(m, remote.ServerOptions{Fault: remote.FaultSpec{Delay: hedgeLinkOneWay, Seed: 1}})
	if err != nil {
		return err
	}
	r.slowServer = ss
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go ss.Serve(sl)
	srf, err := remote.Dial(context.Background(), sl.Addr().String(), e.g, remote.Options{})
	if err != nil {
		return err
	}
	r.slowClient = srf
	hrf, err := remote.Dial(context.Background(), sl.Addr().String(), e.g, remote.Options{
		HedgeAfter:   hedgeLinkOneWay / 10,
		FallbackPath: filepath.Join(dir, parallel.FragmentSnapshotName(recv)),
	})
	if err != nil {
		return err
	}
	r.hedClient = hrf
	r.one = []*pattern.Pattern{e.child}
	r.four = []*pattern.Pattern{e.child, e.child, e.child, e.child}
	r.views = make([]graph.View, len(e.views))
	copy(r.views, e.views)
	for i, v := range e.views {
		if v == e.frags[recv].Sub {
			r.views[i] = rf
		}
	}
	return nil
}

// remoteMicroSpecs returns the distributed-runtime micros, appended to
// the main suite by MicroSpecs.
func remoteMicroSpecs() []MicroSpec {
	return []MicroSpec{
		{"RemoteExtend/worker-n4-remote", func(b *testing.B) {
			// ExtendRows/worker-n4 with one fragment behind the wire: same
			// rows, same child, same result bytes — compare directly.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match.ExtendRowsViews(r.views, e.part, e.child)
			}
		}},
		{"RemoteExtend/rpc-share", func(b *testing.B) {
			// One fragment's indexed share over the wire as a one-child
			// batch: encode, round-trip, decode — the RPC unit in isolation.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.client.ExtendIndexed(e.part, r.one)
			}
		}},
		{"RemoteExtend/rpc-share-x4-serial", func(b *testing.B) {
			// Four shares issued back to back over the latency link: the
			// lock-step lower bound (PR 6's client serialised concurrent
			// callers into exactly this shape). One iteration waits out four
			// full round trips end to end.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 4; j++ {
					r.latClient.ExtendIndexed(e.part, r.one)
				}
			}
		}},
		{"RemoteExtend/rpc-share-x4-pipelined", func(b *testing.B) {
			// The same four shares issued concurrently: they pipeline over the
			// multiplexed connection, ride out the link latency together, and
			// complete out of order — one iteration costs roughly one round
			// trip plus compute, not four. The gap to x4-serial is what
			// multiplexing buys every concurrent superstep.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := 0; j < 4; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						r.latClient.ExtendIndexed(e.part, r.one)
					}()
				}
				wg.Wait()
			}
		}},
		{"RemoteExtend/rpc-batch-x4", func(b *testing.B) {
			// The four shares of x4-pipelined carried by one call over the
			// same latency link: the parent part crosses the wire once and
			// the server answers all four children in one response. The gap
			// to x4-pipelined is what batching a parent's children buys.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.latClient.ExtendIndexed(e.part, r.four)
			}
		}},
		{"RemoteExtend/rpc-share-slow", func(b *testing.B) {
			// One share over the degraded link, unhedged: the deterministic
			// delay makes every call a tail call — each op waits out the full
			// round trip. This is the latency a straggling member inflicts on
			// its superstep.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.slowClient.ExtendIndexed(e.part, r.one)
			}
		}},
		{"RemoteExtend/rpc-share-hedged", func(b *testing.B) {
			// The same share over the same link with hedged replica reads:
			// past the hedge delay the local spill replica recomputes the
			// share and wins, so the op completes at replica speed while the
			// late wire result is discarded in the background. The gap to
			// rpc-share-slow is the tail latency hedging removes.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.hedClient.ExtendIndexed(e.part, r.one)
			}
		}},
		{"RemoteExtend/local-share", func(b *testing.B) {
			// The same share computed against the local mmap of the same
			// fragment: the denominator of the remote overhead ratio.
			e, r := remoteMicroWorkload(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match.ExtendIndexedBatch(r.mapped, e.part, r.one)
			}
		}},
	}
}

// cleanupRemoteMicro tears down the loopback server and the spilled cut;
// called from CleanupMicro.
func cleanupRemoteMicro() {
	r := &remoteMicroE
	if r.client != nil {
		r.client.Close()
		r.client = nil
	}
	if r.latClient != nil {
		r.latClient.Close()
		r.latClient = nil
	}
	if r.slowClient != nil {
		r.slowClient.Close()
		r.slowClient = nil
	}
	if r.hedClient != nil {
		r.hedClient.Close()
		r.hedClient = nil
	}
	if r.slowServer != nil {
		r.slowServer.Close()
		r.slowServer = nil
	}
	if r.server != nil {
		r.server.Close()
		r.server = nil
	}
	if r.latServer != nil {
		r.latServer.Close()
		r.latServer = nil
	}
	if r.mapped != nil {
		r.mapped.Close()
		r.mapped = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}
