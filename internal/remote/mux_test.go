package remote

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/store"
)

// TestMuxOutOfOrderResponses: responses matched by tag, not arrival
// order. A hand-rolled server buffers three tagged requests and answers
// them in reverse; every caller must still receive its own echo.
func TestMuxOutOfOrderResponses(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 3
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		type req struct {
			tag     uint32
			payload []byte
		}
		var reqs []req
		for len(reqs) < n {
			_, tag, payload, _, err := readFrame(c)
			if err != nil {
				return
			}
			reqs = append(reqs, req{tag, payload})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			if _, err := writeFrame(c, msgPong, reqs[i].tag, reqs[i].payload); err != nil {
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wired atomic.Int64
	m := newMux(conn, &wired)
	defer m.Close()

	deadline := time.Now().Add(5 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(tag uint32) {
			defer wg.Done()
			var w wbuf
			w.u32(tag * 1000)
			typ, resp, err := m.roundTrip(msgPing, tag, w.b, deadline)
			if err != nil {
				errs <- fmt.Errorf("tag %d: %v", tag, err)
				return
			}
			if typ != msgPong || !bytes.Equal(resp, w.b) {
				errs <- fmt.Errorf("tag %d: got type %d payload %v, want its own echo", tag, typ, resp)
			}
		}(uint32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if wired.Load() == 0 {
		t.Fatal("no wire bytes accounted on the shared ledger")
	}
}

// TestConcurrentExtendsFaulted: the multiplexing satellite's race test —
// concurrent supersteps pipelined over one connection while the fault
// harness drops and corrupts whole frames, forcing mid-flight mux
// poisonings, redials and retries under the race detector. Every share
// must still come back identical to the local computation.
func TestConcurrentExtendsFaulted(t *testing.T) {
	g := dataset.DBpediaSim(120, 13)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	local, err := store.Open(fragPath)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr, _ := startServer(t, fragPath, ServerOptions{Fault: FaultSpec{Drop: 0.03, Corrupt: 0.03, Seed: 5}})
	rf := dialTest(t, addr, g, Options{
		CallTimeout: 150 * time.Millisecond,
		Backoff:     Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.5, Attempts: 12},
	})

	cases := testChildren(g)
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tc := range cases {
				base := match.EdgeMatches(g, tc.parent, nil)
				want := localShare(local, base, tc.child)
				got := extendOne(rf, base, tc.child)
				if !sameExt(want, got) {
					errs <- fmt.Errorf("case %d diverged under faults", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rf.FailedOver() {
		t.Fatal("faults escalated to failover; retries should have absorbed them")
	}
}

// TestClosedFragmentLifecycle: Close latches. A closed fragment refuses
// further calls with a descriptive error instead of silently redialing
// the server it just hung up on.
func TestClosedFragmentLifecycle(t *testing.T) {
	g := dataset.DBpediaSim(80, 2)
	dir := spillGraph(t, g, 2)
	fragPath := filepath.Join(dir, parallel.FragmentSnapshotName(0))
	addr, srv := startServer(t, fragPath, ServerOptions{})

	rf, err := Dial(context.Background(), addr, g, Options{Backoff: testBackoff(), CallTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Healthy(context.Background()); err != nil {
		t.Fatalf("pre-close health check: %v", err)
	}
	served := srv.Served()
	if err := rf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if err := rf.Healthy(context.Background()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Healthy after Close: err = %v, want a closed-fragment error", err)
	}
	if err := rf.Close(); err == nil || !strings.Contains(err.Error(), "already closed") {
		t.Fatalf("double Close: err = %v, want already-closed error", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("ExtendIndexed after Close did not panic")
			}
			if !strings.Contains(fmt.Sprint(r), "Close") {
				t.Fatalf("panic does not name the lifecycle bug: %v", r)
			}
		}()
		tc := testChildren(g)[0]
		extendOne(rf, match.EdgeMatches(g, tc.parent, nil), tc.child)
	}()
	// No silent redial happened: the server saw no frames after Close.
	if srv.Served() != served {
		t.Fatalf("closed fragment reached the server: %d frames served, was %d", srv.Served(), served)
	}
}

// TestSectionsCompressionRoundTrip: the per-section flate transfer must
// reconstruct the exact serialised snapshot — prefix, payloads and
// inter-section padding — because the receiver mmap-opens those bytes.
func TestSectionsCompressionRoundTrip(t *testing.T) {
	g := dataset.YAGO2Sim(150, 6)
	dir := spillGraph(t, g, 2)
	for w := 0; w < 2; w++ {
		m, err := store.Open(filepath.Join(dir, parallel.FragmentSnapshotName(w)))
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		if err := store.Write(&raw, m); err != nil {
			m.Close()
			t.Fatal(err)
		}
		m.Close()

		z, err := encodeSectionsZ(raw.Bytes())
		if err != nil {
			t.Fatalf("encodeSectionsZ: %v", err)
		}
		if len(z) >= raw.Len() {
			t.Fatalf("compression grew the snapshot: %d -> %d bytes", raw.Len(), len(z))
		}
		back, err := decodeSectionsZ(z)
		if err != nil {
			t.Fatalf("decodeSectionsZ: %v", err)
		}
		if !bytes.Equal(back, raw.Bytes()) {
			t.Fatalf("fragment %d: round trip not byte-identical (%d vs %d bytes)", w, len(back), raw.Len())
		}
		if _, err := store.OpenBytes(back); err != nil {
			t.Fatalf("reconstructed snapshot does not open: %v", err)
		}

		// A flipped payload byte must surface as a decode error, never a
		// silently different snapshot.
		z[len(z)/2] ^= 0xff
		if back2, err := decodeSectionsZ(z); err == nil && bytes.Equal(back2, raw.Bytes()) {
			t.Fatal("corrupted compressed stream decoded to the pristine snapshot")
		}
	}
}
