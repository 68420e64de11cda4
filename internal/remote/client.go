package remote

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/store"
)

// Options configures a RemoteFragment.
type Options struct {
	// DialTimeout bounds each connection attempt.
	DialTimeout time.Duration
	// CallTimeout is the per-RPC deadline: every call on the wire carries
	// it, so a stalled server (or a dropped frame) turns into a timeout,
	// a retry, and eventually a failover instead of a hung superstep. An
	// extend call is one batch — every child of one parent part — so the
	// deadline bounds the whole batch.
	CallTimeout time.Duration
	// Backoff is the retry policy between attempts.
	Backoff Backoff
	// FallbackPath, when set, names this worker's spilled frag-N.gfds:
	// the recovery unit. When the server is declared dead the fragment is
	// re-attached from this file and every subsequent call runs locally —
	// mining output is unchanged because the spill file holds exactly the
	// section bytes the server was mapping.
	FallbackPath string
	// HedgeAfter, when > 0, enables hedged replica reads: an extend batch
	// still outstanding on the wire after this long is concurrently
	// recomputed from the local spill replica (FallbackPath) and the first
	// result wins. The shares are byte-identical either way — hedging trades
	// duplicate work for tail latency, never output. When the health
	// monitor has marked the member suspect the delay tightens to a
	// quarter. Zero disables hedging.
	HedgeAfter time.Duration
	// Seed makes the retry jitter deterministic (tests); 0 derives one.
	Seed int64
	// Clock abstracts backoff sleeps (tests inject a fake).
	Clock Clock
	// Dialer overrides the transport (tests inject fault wrappers or
	// in-memory pipes). Defaults to a TCP dial with DialTimeout.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// Logf, if set, receives one line per retry/failover event.
	Logf func(format string, args ...any)
	// Trace, when non-nil, receives share spans (one per extend batch) and
	// failover/failback/adoption/hedge events for the run's JSONL span
	// log.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
	o.Backoff = o.Backoff.withDefaults()
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// RemoteFragment is a fragment served by a remote process, dressed as a
// graph.View. The node store and symbol surface delegate to the
// coordinator's own base view (every fragment snapshot carries the same
// node store — the handshake fingerprint enforces it), the hot
// incremental join goes over the wire as one batch per parent part
// (match.BatchExtender), and per-edge CSR methods are served from a
// lazily fetched local replica of the fragment's snapshot sections, so
// they never turn into per-edge RPCs.
//
// A RemoteFragment is safe for concurrent use, and concurrent calls
// pipeline: each request gets a fresh tag and flies over the shared
// multiplexed connection without waiting for its siblings' responses
// (see mux.go). Only redialing after a transport failure serialises.
type RemoteFragment struct {
	addrMu sync.Mutex // addr can move when the balancer adopts a replacement
	addr   string

	base graph.View
	opts Options

	// ctx is the fragment's internal lifetime: derived from the caller's
	// Dial context, cancelled by Close so retries and backoff sleeps stop
	// with the fragment.
	ctx    context.Context
	cancel context.CancelFunc

	info           store.FragmentInfo
	numEdges       int
	edgeLabelCount []uint64
	baseFP         uint64 // handshake fingerprint; Adopt revalidates it

	planCache sync.Map

	connMu sync.Mutex // guards mx replacement (dial/redial), not requests
	mx     *mux
	tags   atomic.Uint32

	rngMu sync.Mutex // jitter rng; rand.Rand is not goroutine-safe
	rng   *rand.Rand

	localMu sync.Mutex
	local   *store.MappedGraph // failover attach or fetched replica
	replica bool               // local came from msgSections, not the spill file

	transferred atomic.Int64
	failedOver  atomic.Bool
	dead        atomic.Bool // declared dead: calls short-circuit to local
	closed      atomic.Bool // Close latch: calls after Close are refused
	rejoined    atomic.Bool // sticky: an adoption revalidated at least once

	suspect     atomic.Bool  // health monitor verdict: hedge sooner
	hedgesFired atomic.Int64 // hedges launched since the last drain
	hedgesWon   atomic.Int64 // hedges where the local recompute won
}

// Compile-time checks: the client is a full matching surface and computes
// its own share of the incremental join.
var (
	_ graph.View          = (*RemoteFragment)(nil)
	_ match.BatchExtender = (*RemoteFragment)(nil)
)

// Dial connects to a fragment server and validates the handshake: the
// served fragment must carry the same node store as base (by count and
// content fingerprint) — a coordinator must never join against a
// fragment of a different graph. ctx governs the fragment's lifetime:
// its deadline/cancellation applies to every call.
func Dial(ctx context.Context, addr string, base graph.View, opts Options) (*RemoteFragment, error) {
	if !store.WireSupported() {
		return nil, fmt.Errorf("remote: wire format is little-endian; unsupported on this host")
	}
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = int64(frameSum(0, 0, 0, []byte(addr))) + 1
	}
	ictx, cancel := context.WithCancel(ctx)
	f := &RemoteFragment{
		addr:   addr,
		base:   base,
		opts:   opts,
		ctx:    ictx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(seed)),
	}
	_, resp, err := f.call(msgHello, nil)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	h, err := decodeHelloOK(resp)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	if h.NumNodes != base.NumNodes() || h.NumLabels != base.NumLabels() ||
		h.NumAttrs != base.NumAttrs() || h.NumValues != base.NumValues() {
		f.Close()
		return nil, fmt.Errorf("remote: dial %s: fragment node store (%d nodes, %d labels, %d attrs, %d values) disagrees with the coordinator's graph (%d, %d, %d, %d)",
			addr, h.NumNodes, h.NumLabels, h.NumAttrs, h.NumValues,
			base.NumNodes(), base.NumLabels(), base.NumAttrs(), base.NumValues())
	}
	if fp := Fingerprint(base); fp != h.Fingerprint {
		f.Close()
		return nil, fmt.Errorf("remote: dial %s: fragment node-store fingerprint %016x disagrees with the coordinator's %016x (different graph?)", addr, h.Fingerprint, fp)
	}
	if len(h.EdgeLabelCount) != h.NumLabels {
		f.Close()
		return nil, fmt.Errorf("remote: dial %s: malformed handshake: %d edge-label counts for %d labels", addr, len(h.EdgeLabelCount), h.NumLabels)
	}
	f.info = store.FragmentInfo{Worker: h.Worker, NodeLo: h.NodeLo, NodeHi: h.NodeHi}
	f.numEdges = h.NumEdges
	f.edgeLabelCount = h.EdgeLabelCount
	f.baseFP = h.Fingerprint
	return f, nil
}

// Info returns the fragment's identity from the handshake.
func (f *RemoteFragment) Info() store.FragmentInfo { return f.info }

// Addr returns the server address the fragment currently targets. It
// can change mid-run: Adopt points the fragment at a replacement member.
func (f *RemoteFragment) Addr() string {
	f.addrMu.Lock()
	defer f.addrMu.Unlock()
	return f.addr
}

// Closed reports whether Close has latched the fragment.
func (f *RemoteFragment) Closed() bool { return f.closed.Load() }

// Suspect reports the health monitor's current verdict for this member.
func (f *RemoteFragment) Suspect() bool { return f.suspect.Load() }

// SetSuspect records the health monitor's verdict: a suspect member's
// hedge delay tightens to a quarter of Options.HedgeAfter.
func (f *RemoteFragment) SetSuspect(v bool) { f.suspect.Store(v) }

// TakeHedges drains the hedge counters: hedges fired and hedges won by
// the local recompute since the last call. The parallel backend rolls
// these into cluster.Stats.
func (f *RemoteFragment) TakeHedges() (fired, won int64) {
	return f.hedgesFired.Swap(0), f.hedgesWon.Swap(0)
}

// FailedOver reports whether the fragment is currently serving from its
// local spill attach after being declared dead (or since birth, for
// NewLocalFragment). A validated adoption clears it.
func (f *RemoteFragment) FailedOver() bool { return f.failedOver.Load() }

// Rejoined reports whether the fragment has ever gone from serving
// locally to serving remotely: an adoption whose handshake revalidated.
func (f *RemoteFragment) Rejoined() bool { return f.rejoined.Load() }

// TakeTransferred drains the wire-byte counter: every frame sent or
// received since the last call, headers included. The parallel backend
// charges these real bytes to the cluster ledger in place of the
// simulated Ship volume.
func (f *RemoteFragment) TakeTransferred() int64 { return f.transferred.Swap(0) }

// Healthy probes the server with one heartbeat round-trip under ctx (no
// retries): the liveness check, not the recovery path. It deliberately
// ignores the dead flag — monitors use it to observe the wire, local
// fallback or not.
func (f *RemoteFragment) Healthy(ctx context.Context) error {
	_, err := f.PingRTT(ctx)
	return err
}

// PingRTT is Healthy with a stopwatch: one heartbeat round trip, no
// retries, returning how long the echo took. The health monitor feeds
// these samples into the per-member rolling-quantile spike detector and
// cluster.Stats.
func (f *RemoteFragment) PingRTT(ctx context.Context) (time.Duration, error) {
	if f.closed.Load() {
		return 0, fmt.Errorf("remote: fragment %d (%s) is closed", f.info.Worker, f.Addr())
	}
	var w wbuf
	w.u64(uint64(time.Now().UnixNano()))
	start := time.Now()
	typ, resp, err := f.attempt(ctx, msgPing, w.b)
	if err != nil {
		return 0, err
	}
	if typ != msgPong || !bytes.Equal(resp, w.b) {
		return 0, fmt.Errorf("remote: %s: bad heartbeat echo", f.Addr())
	}
	return time.Since(start), nil
}

// Close releases the connection and any local mapping, and latches the
// fragment closed: subsequent Healthy calls return a descriptive error
// and subsequent extend/fetch calls panic instead of silently redialing
// a server the caller already shut down. The base view is the caller's
// and is left alone.
func (f *RemoteFragment) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return fmt.Errorf("remote: fragment %d (%s) already closed", f.info.Worker, f.Addr())
	}
	f.cancel() // stops backoff sleeps
	f.connMu.Lock()
	if f.mx != nil {
		f.mx.Close()
		f.mx = nil
	}
	f.connMu.Unlock()
	f.localMu.Lock()
	defer f.localMu.Unlock()
	if f.local != nil {
		err := f.local.Close()
		f.local = nil
		return err
	}
	return nil
}

// --- RPC core ---

// dial opens a fresh transport connection.
func (f *RemoteFragment) dial() (net.Conn, error) {
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.DialTimeout)
	defer cancel()
	if f.opts.Dialer != nil {
		return f.opts.Dialer(ctx, f.Addr())
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", f.Addr())
}

// getMux returns the live multiplexed connection, dialing a fresh one if
// there is none or the previous one was poisoned by a transport failure.
// Only the replacement serialises on connMu; requests themselves pipeline
// through the returned mux without holding any fragment-level lock.
func (f *RemoteFragment) getMux() (*mux, error) {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if f.closed.Load() {
		return nil, fmt.Errorf("remote: fragment %d (%s) is closed", f.info.Worker, f.Addr())
	}
	if f.mx != nil && f.mx.Err() == nil {
		return f.mx, nil
	}
	c, err := f.dial()
	if err != nil {
		return nil, err
	}
	f.mx = newMux(c, &f.transferred)
	return f.mx, nil
}

// fatalError marks a server-reported application error: the transport is
// healthy, retrying cannot help.
type fatalError struct{ msg string }

func (e *fatalError) Error() string { return e.msg }

// attempt runs one tagged request/response exchange under ctx's deadline
// (capped by CallTimeout), pipelined over the shared mux.
func (f *RemoteFragment) attempt(ctx context.Context, typ uint32, payload []byte) (uint32, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	m, err := f.getMux()
	if err != nil {
		return 0, nil, err
	}
	deadline := time.Now().Add(f.opts.CallTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	mRPCCalls.Inc()
	start := time.Now()
	respType, resp, err := m.roundTrip(typ, f.tags.Add(1), payload, deadline)
	hRPCCall.ObserveSince(start)
	if err != nil {
		return 0, nil, err
	}
	if respType == msgError {
		r := rbuf{b: resp}
		return 0, nil, &fatalError{msg: fmt.Sprintf("remote: %s: server error: %s", f.Addr(), r.str())}
	}
	return respType, resp, nil
}

// call is the retry loop: each transport failure poisons the shared mux
// (closing the connection for every pipelined sibling), sleeps the capped
// jittered backoff, and retries against a freshly dialed one. A
// server-reported error is fatal immediately; exhausting the attempts
// returns the last transport error — at which point the caller declares
// the fragment dead. Once any call has declared it dead, its in-flight
// siblings stop retrying too: the server is known gone.
func (f *RemoteFragment) call(typ uint32, payload []byte) (uint32, []byte, error) {
	var lastErr error
	for a := 0; a < f.opts.Backoff.Attempts; a++ {
		if f.dead.Load() {
			return 0, nil, fmt.Errorf("remote: fragment %d at %s already declared dead", f.info.Worker, f.Addr())
		}
		if a > 0 {
			mRPCRetries.Inc()
			f.rngMu.Lock()
			delay := f.opts.Backoff.Delay(a-1, f.rng)
			f.rngMu.Unlock()
			f.logf("remote: %s: attempt %d/%d failed (%v); retrying in %s", f.Addr(), a, f.opts.Backoff.Attempts, lastErr, delay)
			if err := f.opts.Clock.Sleep(f.ctx, delay); err != nil {
				return 0, nil, err
			}
		}
		respType, resp, err := f.attempt(f.ctx, typ, payload)
		if err == nil {
			return respType, resp, nil
		}
		if _, fatal := err.(*fatalError); fatal {
			return 0, nil, err
		}
		if f.ctx.Err() != nil {
			return 0, nil, err
		}
		lastErr = err
	}
	mRPCFailures.Inc()
	return 0, nil, fmt.Errorf("remote: %s: %d attempts exhausted: %w", f.Addr(), f.opts.Backoff.Attempts, lastErr)
}

func (f *RemoteFragment) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// --- Failure escalation ---

// localView returns the local mapping, if any (failover attach or
// fetched replica). Suitable for per-edge reads regardless of liveness:
// the bytes are the fragment's snapshot either way.
func (f *RemoteFragment) localView() *store.MappedGraph {
	f.localMu.Lock()
	defer f.localMu.Unlock()
	return f.local
}

// servingLocal returns the view that should compute join shares locally,
// or nil when the share belongs on the wire. Local serving applies when
// the fragment is declared dead (failover) or when a full replica has
// already been fetched (no reason to pay a round trip for data already
// resident). A spill attach whose server has failed back returns nil —
// the fragment is remote again.
func (f *RemoteFragment) servingLocal() *store.MappedGraph {
	f.localMu.Lock()
	defer f.localMu.Unlock()
	if f.local == nil {
		return nil
	}
	if f.replica || f.dead.Load() {
		return f.local
	}
	return nil
}

// declareDead escalates after exhausted retries: re-attach the worker's
// spilled snapshot (the recovery unit) and serve everything locally from
// here on. A previously fetched section replica is an acceptable
// substitute when no spill file was configured. With neither, the
// coordinator cannot preserve correctness and the run stops with a
// descriptive panic — returning wrong mining output is not an option.
// Both branches latch the dead flag, so calls short-circuit straight to
// the local view instead of re-entering the dial/retry ladder. Only the
// live → dead transition is logged, counted and traced: concurrent
// calls that exhaust their retries against the same dead server land
// here too.
func (f *RemoteFragment) declareDead(cause error) *store.MappedGraph {
	f.localMu.Lock()
	m := f.local
	source := "the local mapping"
	if m == nil {
		if f.opts.FallbackPath == "" {
			f.localMu.Unlock()
			panic(fmt.Sprintf("remote: fragment %d at %s declared dead (%v) with no local fallback: set Options.FallbackPath to the worker's spilled frag-N.gfds to enable failover", f.info.Worker, f.Addr(), cause))
		}
		var err error
		m, err = store.Open(f.opts.FallbackPath)
		if err != nil {
			f.localMu.Unlock()
			panic(fmt.Sprintf("remote: fragment %d at %s declared dead (%v) and re-attaching %s failed: %v", f.info.Worker, f.Addr(), cause, f.opts.FallbackPath, err))
		}
		if fi, has := m.Fragment(); !has || fi != f.info || m.NumNodes() != f.base.NumNodes() {
			m.Close()
			f.localMu.Unlock()
			panic(fmt.Sprintf("remote: fragment %d at %s declared dead (%v) but %s holds a different fragment", f.info.Worker, f.Addr(), cause, f.opts.FallbackPath))
		}
		f.local = m
		f.replica = false
		source = f.opts.FallbackPath
	}
	wasDead := f.dead.Swap(true)
	f.failedOver.Store(true)
	f.localMu.Unlock()
	if !wasDead {
		f.logf("remote: fragment %d at %s declared dead (%v); serving from %s", f.info.Worker, f.Addr(), cause, source)
		mFailovers.Inc()
		f.opts.Trace.Event("failover",
			"worker", strconv.Itoa(f.info.Worker), "cause", cause.Error())
	}
	return m
}

// tryFailback re-runs the handshake against the fragment's (adopted)
// address and resumes remote serving only when the server proves to be
// the same fragment of the same graph: identical worker identity, node
// range, edge count and node-store fingerprint. A server that answers
// with anything else — a different spill generation, a different graph —
// leaves the fragment failed over; serving from the validated local
// attach beats trusting an imposter.
func (f *RemoteFragment) tryFailback() error {
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.CallTimeout)
	defer cancel()
	typ, resp, err := f.attempt(ctx, msgHello, nil)
	if err == nil && typ != msgHelloOK {
		err = fmt.Errorf("unexpected response type %d to hello", typ)
	}
	var h helloInfo
	if err == nil {
		h, err = decodeHelloOK(resp)
	}
	if err != nil {
		return err
	}
	got := store.FragmentInfo{Worker: h.Worker, NodeLo: h.NodeLo, NodeHi: h.NodeHi}
	if h.Fingerprint != f.baseFP || got != f.info || h.NumEdges != f.numEdges {
		return fmt.Errorf("the server holds a different fragment")
	}
	f.dead.Store(false)
	f.failedOver.Store(false)
	f.rejoined.Store(true)
	mFailbacks.Inc()
	f.opts.Trace.Event("failback", "worker", strconv.Itoa(f.info.Worker), "addr", f.Addr())
	f.logf("remote: fragment %d at %s validated; serving remotely", f.info.Worker, f.Addr())
	return nil
}

// ExtendIndexed implements match.BatchExtender: the fragment's shares of
// the incremental join of one parent part with each of its children,
// computed server-side against its mmap in one call, so the parent
// columns cross the wire once per batch. On a dead server it degrades to
// the local fallback and computes the identical shares there — the
// superstep resumes, output unchanged. With Options.HedgeAfter set, a
// batch outstanding past the hedge delay is concurrently recomputed from
// the local spill replica and the first result wins. Concurrent calls
// pipeline over the shared connection.
func (f *RemoteFragment) ExtendIndexed(t *match.Table, children []*pattern.Pattern) []match.IndexedExt {
	if f.closed.Load() {
		panic(fmt.Sprintf("remote: ExtendIndexed on closed fragment %d (%s): calls after Close are a lifecycle bug", f.info.Worker, f.Addr()))
	}
	if m := f.servingLocal(); m != nil {
		return match.ExtendIndexedBatch(m, t, children)
	}
	if t == nil {
		return make([]match.IndexedExt, len(children))
	}
	payload := encodeExtend(t, children)
	sp := f.opts.Trace.Start("share", "worker", strconv.Itoa(f.info.Worker), "children", strconv.Itoa(len(children)))
	start := time.Now()
	defer func() {
		hShare.ObserveSince(start)
		sp.End()
	}()
	if delay := f.hedgeDelay(); delay > 0 {
		return f.extendHedged(t, children, payload, delay)
	}
	exts, err := f.extendRemote(t, children, payload)
	if err != nil {
		return match.ExtendIndexedBatch(f.declareDead(err), t, children)
	}
	return exts
}

// extendRemote runs the fragment's batch on the wire: the retried RPC
// plus response decode, with no failover escalation — callers decide
// what an exhausted wire means (declareDead for the solo path, "the
// local hedge already won" for the hedged one). A response must carry
// one share per child, each shaped like its child (a new column exactly
// for new-node children), or the merge could not use it.
func (f *RemoteFragment) extendRemote(t *match.Table, children []*pattern.Pattern, payload []byte) ([]match.IndexedExt, error) {
	respType, resp, err := f.call(msgExtendBatch, payload)
	if err == nil && respType != msgExtendBatchOK {
		err = fmt.Errorf("remote: %s: unexpected response type %d to extend", f.Addr(), respType)
	}
	if err != nil {
		return nil, err
	}
	exts, err := decodeExtendOK(resp)
	if err != nil {
		return nil, err
	}
	if len(exts) != len(children) {
		return nil, fmt.Errorf("remote: %s: %d shares for %d children", f.Addr(), len(exts), len(children))
	}
	for i, ext := range exts {
		newNode := children[i].N() > t.NumVars()
		if newNode && len(ext.NewCol) != len(ext.ParentRows) || !newNode && ext.NewCol != nil {
			return nil, fmt.Errorf("remote: %s: share %d is not shaped like its child", f.Addr(), i)
		}
	}
	return exts, nil
}

// hedgeDelay returns the effective hedge delay for the next share: 0
// when hedging is disabled or there is nothing local to hedge against;
// a quarter of Options.HedgeAfter when the health monitor has marked
// the member suspect.
func (f *RemoteFragment) hedgeDelay() time.Duration {
	d := f.opts.HedgeAfter
	if d <= 0 {
		return 0
	}
	if f.opts.FallbackPath == "" && f.localView() == nil {
		return 0
	}
	if f.suspect.Load() {
		if d /= 4; d <= 0 {
			d = 1
		}
	}
	return d
}

// extendHedged races the wire against the local replica, a whole batch
// at a time. The RPC flies first; if it lands within the hedge delay the
// hedge never fires. Past the delay the batch is recomputed from the
// local spill attach while the RPC keeps flying, and the first result
// wins — the loser is discarded (an abandoned RPC is bounded by
// CallTimeout, and its eventual failure still escalates through
// declareDead so a genuinely dead server does not hide behind winning
// hedges). Both computations produce byte-identical rows, so the
// winner's identity never shows in mining output — only in the hedge
// counters.
func (f *RemoteFragment) extendHedged(t *match.Table, children []*pattern.Pattern, payload []byte, delay time.Duration) []match.IndexedExt {
	type result struct {
		exts []match.IndexedExt
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		exts, err := f.extendRemote(t, children, payload)
		ch <- result{exts, err}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return match.ExtendIndexedBatch(f.declareDead(r.err), t, children)
		}
		return r.exts
	case <-timer.C:
	}
	m, err := f.ensureLocal()
	if err != nil {
		// No replica after all (attach raced Close, file vanished): wait
		// out the wire like an unhedged call.
		f.logf("remote: %s: hedge wanted but local attach failed (%v); waiting for the wire", f.Addr(), err)
		r := <-ch
		if r.err != nil {
			return match.ExtendIndexedBatch(f.declareDead(r.err), t, children)
		}
		return r.exts
	}
	f.hedgesFired.Add(1)
	local := match.ExtendIndexedBatch(m, t, children)
	select {
	case r := <-ch:
		// The wire landed while the local batch was computing: prefer the
		// remote result when it is clean (both are identical — this just
		// keeps the accounting honest about who finished first).
		if r.err == nil {
			f.traceHedge("remote")
			return r.exts
		}
		f.hedgesWon.Add(1)
		f.traceHedge("local")
		f.declareDead(r.err)
		return local
	default:
	}
	f.hedgesWon.Add(1)
	f.traceHedge("local")
	go func() {
		if r := <-ch; r.err != nil && !f.closed.Load() {
			f.declareDead(r.err)
		}
	}()
	return local
}

// traceHedge records the outcome of a fired hedge race.
func (f *RemoteFragment) traceHedge(winner string) {
	f.opts.Trace.Event("hedge-race",
		"worker", strconv.Itoa(f.info.Worker), "winner", winner)
}

// ensureLocal returns a local mapping suitable for hedged recomputes:
// the already-resident mapping if one exists, else a fresh validated
// attach of FallbackPath. Unlike declareDead it does not latch the dead
// flag — remote serving continues (servingLocal only serves a spill
// attach once the fragment is dead), the mapping just sits ready to race
// slow shares.
func (f *RemoteFragment) ensureLocal() (*store.MappedGraph, error) {
	f.localMu.Lock()
	defer f.localMu.Unlock()
	if f.local != nil {
		return f.local, nil
	}
	if f.opts.FallbackPath == "" {
		return nil, fmt.Errorf("remote: fragment %d has no FallbackPath to hedge against", f.info.Worker)
	}
	m, err := store.Open(f.opts.FallbackPath)
	if err != nil {
		return nil, err
	}
	if fi, has := m.Fragment(); !has || fi != f.info || m.NumNodes() != f.base.NumNodes() {
		m.Close()
		return nil, fmt.Errorf("remote: %s holds a different fragment", f.opts.FallbackPath)
	}
	f.local = m
	f.replica = false
	return m, nil
}

// FailOver applies the health monitor's Dead verdict: re-attach the
// spill (or keep the resident replica) and serve locally until the
// balancer adopts a recovered member. The in-line escalation panics
// without a local source —
// mid-superstep there is no other way to preserve correctness — but a
// monitor verdict arrives between calls, so here the degenerate case
// reports an error and leaves the fragment remote instead.
func (f *RemoteFragment) FailOver(cause error) error {
	if f.closed.Load() {
		return fmt.Errorf("remote: fragment %d (%s) is closed", f.info.Worker, f.Addr())
	}
	if f.dead.Load() {
		return nil
	}
	if f.opts.FallbackPath == "" && f.localView() == nil {
		return fmt.Errorf("remote: fragment %d (%s) cannot fail over: no FallbackPath and no replica", f.info.Worker, f.Addr())
	}
	f.declareDead(cause)
	return nil
}

// Adopt points the fragment at a member address decided by the balancer
// at a superstep boundary. The live mux is torn down when the address
// actually changes, so the next call dials the replacement. A fragment
// currently serving locally (failed over, or deferred via
// NewLocalFragment) additionally revalidates the handshake right away
// and on success resumes remote serving — the member-join path. A
// validation failure leaves it serving locally and returns the error.
func (f *RemoteFragment) Adopt(addr string) error {
	if f.closed.Load() {
		return fmt.Errorf("remote: fragment %d is closed", f.info.Worker)
	}
	f.addrMu.Lock()
	same := f.addr == addr
	f.addr = addr
	f.addrMu.Unlock()
	mAdoptions.Inc()
	f.opts.Trace.Event("adopt", "worker", strconv.Itoa(f.info.Worker), "addr", addr)
	if !same {
		f.connMu.Lock()
		if f.mx != nil {
			f.mx.Close()
			f.mx = nil
		}
		f.connMu.Unlock()
	}
	if !f.dead.Load() {
		return nil
	}
	if err := f.tryFailback(); err != nil {
		return fmt.Errorf("remote: fragment %d: adopting %s: %w; staying local", f.info.Worker, addr, err)
	}
	return nil
}

// NewLocalFragment builds a fragment that starts life failed over: every
// call serves from the spilled fragment file, no server required. It is
// the coordinator's placeholder for a worker slot with no registered
// member yet — when one announces, Adopt validates it and the fragment
// goes remote mid-run (the join path). base must be the coordinator's
// graph, fallbackPath the slot's frag-N.gfds.
func NewLocalFragment(ctx context.Context, base graph.View, fallbackPath string, opts Options) (*RemoteFragment, error) {
	if !store.WireSupported() {
		return nil, fmt.Errorf("remote: wire format is little-endian; unsupported on this host")
	}
	opts = opts.withDefaults()
	opts.FallbackPath = fallbackPath
	m, err := store.Open(fallbackPath)
	if err != nil {
		return nil, fmt.Errorf("remote: local fragment: %w", err)
	}
	fi, has := m.Fragment()
	if !has {
		m.Close()
		return nil, fmt.Errorf("remote: local fragment: %s is not a spilled fragment", fallbackPath)
	}
	if m.NumNodes() != base.NumNodes() {
		m.Close()
		return nil, fmt.Errorf("remote: local fragment: %s has %d nodes, the coordinator's graph %d", fallbackPath, m.NumNodes(), base.NumNodes())
	}
	seed := opts.Seed
	if seed == 0 {
		seed = int64(frameSum(0, 0, 0, []byte(fallbackPath))) + 1
	}
	ictx, cancel := context.WithCancel(ctx)
	f := &RemoteFragment{
		base:   base,
		opts:   opts,
		ctx:    ictx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(seed)),
	}
	f.info = fi
	f.numEdges = m.NumEdges()
	elc := make([]uint64, base.NumLabels())
	for l := range elc {
		elc[l] = uint64(m.EdgeLabelCount(graph.LabelID(l)))
	}
	f.edgeLabelCount = elc
	f.baseFP = Fingerprint(base)
	f.local = m
	f.replica = false
	f.dead.Store(true)
	f.failedOver.Store(true)
	return f, nil
}

// fetchLocal returns a local view of the fragment's CSR, fetching the
// snapshot sections over the wire once if the spill file has not already
// been attached. Per-edge View methods route here: one bulk transfer of
// flate-compressed sections instead of per-edge RPCs.
func (f *RemoteFragment) fetchLocal() *store.MappedGraph {
	if f.closed.Load() {
		panic(fmt.Sprintf("remote: view access on closed fragment %d (%s): calls after Close are a lifecycle bug", f.info.Worker, f.Addr()))
	}
	if m := f.localView(); m != nil {
		return m
	}
	var w wbuf
	w.u32(sectionsAcceptFlate)
	respType, resp, err := f.call(msgSections, w.b)
	var snap []byte
	if err == nil {
		switch respType {
		case msgSectionsZ:
			snap, err = decodeSectionsZ(resp)
		case msgSectionsOK:
			snap = resp
		default:
			err = fmt.Errorf("remote: %s: unexpected response type %d to sections", f.Addr(), respType)
		}
	}
	var m *store.MappedGraph
	if err == nil {
		m, err = store.OpenBytes(snap)
	}
	if err != nil {
		return f.declareDead(err)
	}
	f.localMu.Lock()
	defer f.localMu.Unlock()
	if f.local == nil {
		f.local = m
		f.replica = true
	}
	return f.local
}

// --- graph.View: node store and symbols (the coordinator's own base) ---

func (f *RemoteFragment) NumNodes() int  { return f.base.NumNodes() }
func (f *RemoteFragment) NumLabels() int { return f.base.NumLabels() }
func (f *RemoteFragment) NumAttrs() int  { return f.base.NumAttrs() }
func (f *RemoteFragment) NumValues() int { return f.base.NumValues() }

func (f *RemoteFragment) NodeLabelID(v graph.NodeID) graph.LabelID { return f.base.NodeLabelID(v) }

func (f *RemoteFragment) Attr(v graph.NodeID, a string) (string, bool) { return f.base.Attr(v, a) }

func (f *RemoteFragment) LookupLabel(name string) (graph.LabelID, bool) {
	return f.base.LookupLabel(name)
}
func (f *RemoteFragment) LabelName(id graph.LabelID) string { return f.base.LabelName(id) }
func (f *RemoteFragment) LookupAttr(name string) (graph.AttrID, bool) {
	return f.base.LookupAttr(name)
}
func (f *RemoteFragment) AttrName(id graph.AttrID) string { return f.base.AttrName(id) }
func (f *RemoteFragment) LookupValue(val string) (graph.ValueID, bool) {
	return f.base.LookupValue(val)
}
func (f *RemoteFragment) ValueName(id graph.ValueID) string { return f.base.ValueName(id) }

func (f *RemoteFragment) AttrColumn(a graph.AttrID) graph.AttrColumn { return f.base.AttrColumn(a) }

func (f *RemoteFragment) AttrValueID(v graph.NodeID, a graph.AttrID) graph.ValueID {
	return f.base.AttrValueID(v, a)
}

func (f *RemoteFragment) NodesByLabelID(l graph.LabelID) []graph.NodeID {
	return f.base.NodesByLabelID(l)
}

// --- graph.View: fragment-local counts (shipped in the handshake) ---

func (f *RemoteFragment) NumEdges() int { return f.numEdges }

func (f *RemoteFragment) EdgeLabelCount(l graph.LabelID) int {
	if l == graph.NoLabel {
		return f.numEdges
	}
	if int(l) >= len(f.edgeLabelCount) {
		return 0
	}
	return int(f.edgeLabelCount[l])
}

// --- graph.View: per-edge CSR (served from the local replica) ---

func (f *RemoteFragment) OutRuns(v graph.NodeID) (lo, hi int) { return f.fetchLocal().OutRuns(v) }
func (f *RemoteFragment) InRuns(v graph.NodeID) (lo, hi int)  { return f.fetchLocal().InRuns(v) }
func (f *RemoteFragment) OutRunLabel(r int) graph.LabelID     { return f.fetchLocal().OutRunLabel(r) }
func (f *RemoteFragment) InRunLabel(r int) graph.LabelID      { return f.fetchLocal().InRunLabel(r) }
func (f *RemoteFragment) OutRunNodes(r int) []graph.NodeID    { return f.fetchLocal().OutRunNodes(r) }
func (f *RemoteFragment) InRunNodes(r int) []graph.NodeID     { return f.fetchLocal().InRunNodes(r) }

func (f *RemoteFragment) OutTo(v graph.NodeID, l graph.LabelID) []graph.NodeID {
	return f.fetchLocal().OutTo(v, l)
}

func (f *RemoteFragment) InFrom(v graph.NodeID, l graph.LabelID) []graph.NodeID {
	return f.fetchLocal().InFrom(v, l)
}

func (f *RemoteFragment) HasEdgeID(src, dst graph.NodeID, l graph.LabelID) bool {
	return f.fetchLocal().HasEdgeID(src, dst, l)
}

// PlanCache implements graph.View: the remote view's own compiled-plan
// cache.
func (f *RemoteFragment) PlanCache() *sync.Map { return &f.planCache }

// String summarises the remote fragment.
func (f *RemoteFragment) String() string {
	state := "remote"
	switch {
	case f.closed.Load():
		state = "closed"
	case f.FailedOver():
		state = "failed-over"
	case f.Rejoined():
		state = "rejoined"
	case f.localView() != nil:
		state = "replicated"
	}
	return fmt.Sprintf("remote{worker %d @ %s, %d edges, owns [%d,%d), %s}",
		f.info.Worker, f.Addr(), f.numEdges, f.info.NodeLo, f.info.NodeHi, state)
}
