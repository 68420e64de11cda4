package remote

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/store"
)

// ServerOptions configures a fragment server.
type ServerOptions struct {
	// Fault wraps every accepted connection for chaos testing.
	Fault FaultSpec
	// DieAfter, when positive, makes the server die after serving that
	// many frames: OnDeath runs if set (cmd/gfdfrag exits the process),
	// otherwise the server closes its listener and connections — either
	// way the coordinator sees a mid-mine worker loss at a deterministic
	// point, which is what the failover tests replay.
	DieAfter int
	// OnDeath, if set, runs when DieAfter triggers.
	OnDeath func()
	// Logf, if set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Server serves one fragment's share of the incremental join over the
// frame protocol. The fragment snapshot is self-contained (full node
// store and symbol pools), so the server answers extend batches with no
// state beyond its mmap — exactly the ParDis worker model, one process
// per fragment.
type Server struct {
	m    *store.MappedGraph
	opts ServerOptions
	fp   uint64

	served atomic.Int64 // frames handled, drives DieAfter
	dead   atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewServer wraps an opened fragment snapshot. The node-store fingerprint
// is computed once, up front: it is part of every handshake.
func NewServer(m *store.MappedGraph, opts ServerOptions) (*Server, error) {
	if !store.WireSupported() {
		return nil, fmt.Errorf("remote: wire format is little-endian; unsupported on this host")
	}
	// Build the extend kernel's label signatures before the first batch
	// arrives.
	graph.LabelSigsFor(m)
	return &Server{
		m:         m,
		opts:      opts,
		fp:        Fingerprint(m),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on l until Close (or DieAfter). It blocks;
// the returned error is nil on clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("remote: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	var stream int64
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		stream++
		wrapped := s.opts.Fault.Wrap(c, stream)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1) // under mu: Close must not start waiting before it
		s.mu.Unlock()
		go func(raw net.Conn, cc net.Conn) {
			defer s.wg.Done()
			s.handle(cc)
			raw.Close()
			s.mu.Lock()
			delete(s.conns, raw)
			s.mu.Unlock()
		}(c, wrapped)
	}
}

// Close shuts the server down: listeners and open connections are closed
// and in-flight handlers drain. Every call waits for the drain, so a
// caller may release the mapping once Close returns, even when a
// DieAfter death started closing first.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for l := range s.listeners {
			l.Close()
		}
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Served returns the number of frames handled so far.
func (s *Server) Served() int64 { return s.served.Load() }

// die implements DieAfter: an abrupt, deterministic worker loss.
func (s *Server) die() {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.logf("remote: server dying after %d frames (fault injection)", s.served.Load())
	if s.opts.OnDeath != nil {
		s.opts.OnDeath()
		return
	}
	go s.Close()
}

// handle serves one connection until it errors or the server dies.
// Tagged requests dispatch concurrently: each frame's handler runs in
// its own goroutine (the fragment mmap is read-only, so shared access is
// safe) and writes its response — carrying the request's tag — under a
// per-connection write mutex. Responses therefore interleave in
// completion order, not request order; the client's demultiplexer
// matches them by tag. A slow sections transfer no longer blocks the
// extend shares pipelined behind it.
func (s *Server) handle(c net.Conn) {
	var writeMu sync.Mutex
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		typ, tag, payload, _, err := readFrame(c)
		if err != nil {
			return
		}
		n := s.served.Add(1)
		if s.opts.DieAfter > 0 && n >= int64(s.opts.DieAfter) {
			s.die()
			return
		}
		handlers.Add(1)
		go func(typ, tag uint32, payload []byte) {
			defer handlers.Done()
			respType, resp := s.dispatch(typ, payload)
			writeMu.Lock()
			_, werr := writeFrame(c, respType, tag, resp)
			writeMu.Unlock()
			if werr != nil {
				// The write path is dead; close the conn so the read loop
				// (and every sibling handler) unwinds instead of queueing
				// responses nobody will receive.
				c.Close()
			}
		}(typ, tag, payload)
	}
}

// dispatch routes one request to its handler. Handler errors come back
// as msgError payloads: application-level failures the client treats as
// fatal rather than retriable transport faults.
func (s *Server) dispatch(typ uint32, payload []byte) (uint32, []byte) {
	var respType uint32
	var resp []byte
	var err error
	switch typ {
	case msgHello:
		respType, resp = msgHelloOK, s.hello()
	case msgPing:
		respType, resp = msgPong, payload
	case msgExtendBatch:
		respType, resp, err = s.extend(payload)
	case msgSections:
		respType, resp, err = s.sections(payload)
	default:
		err = fmt.Errorf("unknown message type %d", typ)
	}
	if err != nil {
		var w wbuf
		w.str(err.Error())
		respType, resp = msgError, w.b
	}
	return respType, resp
}

func (s *Server) hello() []byte {
	fi, _ := s.m.Fragment()
	h := helloInfo{
		Worker:      fi.Worker,
		NodeLo:      fi.NodeLo,
		NodeHi:      fi.NodeHi,
		NumNodes:    s.m.NumNodes(),
		NumEdges:    s.m.NumEdges(),
		NumLabels:   s.m.NumLabels(),
		NumAttrs:    s.m.NumAttrs(),
		NumValues:   s.m.NumValues(),
		Fingerprint: s.fp,
	}
	h.EdgeLabelCount = make([]uint64, s.m.NumLabels())
	for l := 0; l < s.m.NumLabels(); l++ {
		h.EdgeLabelCount[l] = uint64(s.m.EdgeLabelCount(graph.LabelID(l)))
	}
	return encodeHelloOK(h)
}

// extend is the hot handler: decode the batch, range-check the parent
// part's bindings once, run this fragment's share of the join for every
// child against the mmap, and frame the shares back in child order.
func (s *Server) extend(payload []byte) (uint32, []byte, error) {
	t, children, err := decodeExtend(payload)
	if err != nil {
		return 0, nil, err
	}
	for v := 0; v < t.NumVars(); v++ {
		for _, id := range t.Col(v) {
			if int(id) >= s.m.NumNodes() {
				return 0, nil, fmt.Errorf("row binding %d out of range (%d nodes)", id, s.m.NumNodes())
			}
		}
	}
	return msgExtendBatchOK, encodeExtendOK(match.ExtendIndexedBatch(s.m, t, children)), nil
}

// sections ships the fragment's snapshot — the same bytes Spill wrote,
// re-serialised from the mapping — so the coordinator can serve per-edge
// View calls from a local replica. A client that announced
// sectionsAcceptFlate gets the per-section compressed form
// (msgSectionsZ); a flagless or empty (pre-compression) request gets the
// raw stream, so old clients keep working.
func (s *Server) sections(payload []byte) (uint32, []byte, error) {
	var flags uint32
	if len(payload) > 0 {
		r := rbuf{b: payload}
		flags = r.u32()
		if err := r.err(); err != nil {
			return 0, nil, err
		}
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, s.m); err != nil {
		return 0, nil, err
	}
	if flags&sectionsAcceptFlate != 0 {
		z, err := encodeSectionsZ(buf.Bytes())
		if err != nil {
			return 0, nil, err
		}
		return msgSectionsZ, z, nil
	}
	return msgSectionsOK, buf.Bytes(), nil
}

// ServeFragment runs one fragment server's whole lifecycle: it maps the
// spilled fragment at fragPath, listens on listen and serves until ctx
// ends. With a registry address the server announces itself there once
// it is listening, as a cluster member. When opts.DieAfter kills it
// (and no OnDeath ends the process) and restartAfter is positive, it
// comes back on the same address after that delay, without the death
// trap, and announces again, so the coordinator's balancer adopts the
// recovered incarnation at its next superstep boundary. event, if set,
// receives each lifecycle step with the address it concerns: "serve",
// "announce", "die", "resurrect".
func ServeFragment(ctx context.Context, fragPath, listen, registry string, restartAfter time.Duration, opts ServerOptions, event func(name, addr string)) error {
	m, err := store.Open(fragPath)
	if err != nil {
		return err
	}
	defer m.Close()
	if _, has := m.Fragment(); !has {
		return fmt.Errorf("remote: %s carries no fragment metadata (not a frag-N.gfds spill file?)", fragPath)
	}
	if event == nil {
		event = func(string, string) {}
	}
	var announcers sync.WaitGroup
	defer announcers.Wait()
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	for step := "serve"; ; step = "resurrect" {
		s, err := NewServer(m, opts)
		if err != nil {
			l.Close()
			return err
		}
		event(step, addr)
		if registry != "" {
			announcers.Add(1)
			go func() {
				defer announcers.Done()
				s.announce(ctx, registry, addr, event)
			}()
		}
		stop := context.AfterFunc(ctx, func() { s.Close() })
		err = s.Serve(l)
		stop()
		s.Close() // the handlers drain before the mapping can be released
		if err != nil || ctx.Err() != nil || !s.dead.Load() || restartAfter <= 0 {
			return err
		}
		event("die", addr)
		s.logf("remote: resurrecting on %s in %s", addr, restartAfter)
		if (realClock{}).Sleep(ctx, restartAfter) != nil {
			return nil
		}
		opts.DieAfter = 0 // the recovered incarnation stays up
		if l, err = net.Listen("tcp", addr); err != nil {
			return fmt.Errorf("remote: rebinding %s: %w", addr, err)
		}
	}
}

// announce registers this serving incarnation with a coordinator's
// membership registry. The backoff is generous: fragment servers
// routinely start before the coordinator's registry is listening.
func (s *Server) announce(ctx context.Context, registry, addr string, event func(name, addr string)) {
	fi, _ := s.m.Fragment()
	info := AnnounceInfo{
		Worker:      fi.Worker,
		Addr:        addr,
		NodeLo:      fi.NodeLo,
		NodeHi:      fi.NodeHi,
		NumEdges:    s.m.NumEdges(),
		Fingerprint: s.fp,
	}
	epoch, err := Announce(ctx, registry, info, Options{
		Backoff: Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.5, Attempts: 30},
	})
	if err != nil {
		if ctx.Err() == nil {
			s.logf("remote: announce to %s: %v", registry, err)
		}
		return
	}
	s.logf("remote: announced worker %d at %s to %s (epoch %d)", fi.Worker, addr, registry, epoch)
	event("announce", addr)
}
