package cluster

import (
	"testing"
	"time"
)

func TestConfigDefaults(t *testing.T) {
	e := New(Config{})
	if e.Workers() != 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
	e = New(Config{Workers: 8})
	if e.Workers() != 8 {
		t.Fatalf("workers = %d", e.Workers())
	}
}

func TestSuperstepAccounting(t *testing.T) {
	e := New(Config{Workers: 4})
	ran := make([]bool, 4)
	e.Superstep("work", func(w int) {
		ran[w] = true
		time.Sleep(time.Millisecond)
	})
	for w, r := range ran {
		if !r {
			t.Fatalf("worker %d did not run", w)
		}
	}
	s := e.Stats()
	if s.Supersteps != 1 {
		t.Fatalf("supersteps = %d", s.Supersteps)
	}
	if s.ComputeTime < time.Millisecond {
		t.Fatalf("compute time = %v, want >= 1ms (max of workers)", s.ComputeTime)
	}
	// Makespan charges the max, not the sum: the busiest worker's time,
	// below the total of all four (each slept at least 1ms).
	busiest, sum := time.Duration(0), time.Duration(0)
	for _, b := range s.WorkerBusy {
		busiest, sum = max(busiest, b), sum+b
	}
	if s.ComputeTime != busiest || s.ComputeTime >= sum {
		t.Fatalf("compute time = %v, want the max %v of worker busy %v, below their sum %v", s.ComputeTime, busiest, s.WorkerBusy, sum)
	}
	if s.CommTime <= 0 {
		t.Fatal("superstep must charge at least one latency round")
	}
}

func TestShipCharges(t *testing.T) {
	e := New(Config{Workers: 2, BytesPerSecond: 1000, RoundLatency: time.Millisecond})
	e.Superstep("comm", func(w int) {
		e.Ship(w, 500) // 0.5s at 1000 B/s
	})
	s := e.Stats()
	if s.Bytes != 1000 || s.Messages != 2 {
		t.Fatalf("bytes=%d msgs=%d", s.Bytes, s.Messages)
	}
	// h-relation: max per-worker volume = 500 bytes = 0.5s, + 1ms latency.
	want := 500*time.Millisecond + time.Millisecond
	if s.CommTime != want {
		t.Fatalf("comm time = %v, want %v", s.CommTime, want)
	}
}

func TestShipAll(t *testing.T) {
	e := New(Config{Workers: 3, BytesPerSecond: 1 << 30})
	e.Superstep("bcast", func(w int) {})
	e.ShipAll(100)
	e.Superstep("next", func(w int) {})
	if got := e.Stats().Bytes; got != 300 {
		t.Fatalf("bytes = %d, want 300", got)
	}
}

func TestAccount(t *testing.T) {
	e := New(Config{Workers: 3, RoundLatency: time.Millisecond})
	busy := []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	e.Account("validate", busy, 2)
	s := e.Stats()
	if s.ComputeTime != 3*time.Millisecond {
		t.Fatalf("compute = %v, want max 3ms", s.ComputeTime)
	}
	if s.CommTime != 2*time.Millisecond {
		t.Fatalf("comm = %v, want 2 rounds * 1ms", s.CommTime)
	}
	if s.WorkerBusy[1] != 3*time.Millisecond {
		t.Fatalf("worker busy = %v", s.WorkerBusy)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched busy length must panic")
		}
	}()
	e.Account("bad", []time.Duration{0}, 1)
}

func TestMasterTime(t *testing.T) {
	e := New(Config{Workers: 2})
	e.Master("prep", func() { time.Sleep(time.Millisecond) })
	if e.Stats().MasterTime < time.Millisecond {
		t.Fatalf("master time = %v", e.Stats().MasterTime)
	}
}

func TestSkew(t *testing.T) {
	e := New(Config{Workers: 2, RoundLatency: time.Nanosecond})
	e.Account("skewed", []time.Duration{4 * time.Millisecond, 0}, 1)
	if sk := e.Stats().Skew(); sk < 1.9 || sk > 2.1 {
		t.Fatalf("skew = %v, want ~2 (one worker does everything)", sk)
	}
	e2 := New(Config{Workers: 2, RoundLatency: time.Nanosecond})
	e2.Account("balanced", []time.Duration{time.Millisecond, time.Millisecond}, 1)
	if sk := e2.Stats().Skew(); sk != 1 {
		t.Fatalf("balanced skew = %v, want 1", sk)
	}
	if (Stats{}).Skew() != 1 {
		t.Fatal("empty stats skew must be 1")
	}
}

func TestConcurrentMode(t *testing.T) {
	e := New(Config{Workers: 4, Mode: Concurrent})
	var results [4]int
	e.Superstep("conc", func(w int) { results[w] = w * w })
	for w, v := range results {
		if v != w*w {
			t.Fatalf("worker %d result %d", w, v)
		}
	}
	if e.Stats().Supersteps != 1 || e.Stats().ComputeTime <= 0 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestTotalCombinesParts(t *testing.T) {
	s := Stats{ComputeTime: 1, CommTime: 2, MasterTime: 4}
	if s.Total() != 7 {
		t.Fatalf("Total = %v", s.Total())
	}
}
