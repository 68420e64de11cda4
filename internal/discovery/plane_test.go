package discovery

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// TestPivotCounterEpochWrap forces the epoch to wrap. A stamp written
// 2^32 - 1 resets ago carries the value the epoch returns to, so the
// wrap must clear the stamps or that node would read as already counted.
func TestPivotCounterEpochWrap(t *testing.T) {
	pc := NewPivotCounter(8)
	add := func(v int, want bool) {
		t.Helper()
		if got := pc.Add(graph.NodeID(v)); got != want {
			t.Fatalf("epoch %d: Add(%d) = %v, want %v", pc.epoch, v, got, want)
		}
	}
	add(2, true)
	add(2, false)
	pc.Reset()
	add(2, true) // a reset forgets every pivot
	if pc.Len() != 1 {
		t.Fatalf("Len = %d after one distinct pivot", pc.Len())
	}

	// Node 2 keeps stamp 2 while the epoch runs up to its last value.
	pc.epoch = math.MaxUint32
	add(5, true)
	pc.Reset() // wraps: the stamps are cleared and counting restarts at 1
	if pc.epoch != 1 || pc.Len() != 0 {
		t.Fatalf("after the wrap: epoch %d, Len %d", pc.epoch, pc.Len())
	}
	add(5, true)
	pc.Reset()
	add(2, true) // epoch 2 again: node 2's old stamp must not count
	add(2, false)
	add(5, true)
	if pc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pc.Len())
	}
}
