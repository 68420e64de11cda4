package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/pattern"
)

// layerClock accumulates the busy time of every layer the mining driver
// calls into during a traced job. The driver calls the backend and its
// evaluators from one goroutine (the backends parallelise inside a call),
// so plain fields need no synchronisation.
type layerClock struct {
	seed, extend, release, constants, index, query time.Duration
	queries                                        int64
}

// backend is the sum of every timed backend call: mine time minus this
// is the driver's own self time.
func (c *layerClock) backend() time.Duration {
	return c.seed + c.extend + c.release + c.constants + c.index + c.query
}

// timedBackend wraps a discovery.Backend, charging each call to its layer:
// seeding and incremental joins to the match layer, constant counting and
// the satisfaction index to the literal layer.
type timedBackend struct {
	b discovery.Backend
	c *layerClock
}

func (t timedBackend) SeedBatch(ps []*pattern.Pattern) []discovery.PatOut {
	start := time.Now()
	out := t.b.SeedBatch(ps)
	t.c.seed += time.Since(start)
	return out
}

func (t timedBackend) ExtendBatch(parents []discovery.Handle, children []*pattern.Pattern) []discovery.PatOut {
	start := time.Now()
	out := t.b.ExtendBatch(parents, children)
	t.c.extend += time.Since(start)
	return out
}

func (t timedBackend) Release(h discovery.Handle) {
	start := time.Now()
	t.b.Release(h)
	t.c.release += time.Since(start)
}

func (t timedBackend) Evaluate(h discovery.Handle, pool []core.Literal) discovery.Evaluator {
	start := time.Now()
	ev := t.b.Evaluate(h, pool)
	t.c.index += time.Since(start)
	return timedEvaluator{ev: ev, c: t.c}
}

func (t timedBackend) Constants(h discovery.Handle, nvars int, gamma []string, max int) [][]string {
	start := time.Now()
	out := t.b.Constants(h, nvars, gamma, max)
	t.c.constants += time.Since(start)
	return out
}

// timedEvaluator charges candidate-validation queries to literal.query
// and the index release to literal.index (where the index was built).
type timedEvaluator struct {
	ev discovery.Evaluator
	c  *layerClock
}

func (t timedEvaluator) done(start time.Time) {
	t.c.query += time.Since(start)
	t.c.queries++
}

func (t timedEvaluator) Violated(x []int, l int) bool {
	start := time.Now()
	defer t.done(start)
	return t.ev.Violated(x, l)
}

func (t timedEvaluator) SupportXl(x []int, l int) int {
	start := time.Now()
	defer t.done(start)
	return t.ev.SupportXl(x, l)
}

func (t timedEvaluator) SupportX(x []int) int {
	start := time.Now()
	defer t.done(start)
	return t.ev.SupportX(x)
}

func (t timedEvaluator) CoHolds(x []int) []bool {
	start := time.Now()
	defer t.done(start)
	return t.ev.CoHolds(x)
}

func (t timedEvaluator) AttrPresent(v int, attr string) bool {
	start := time.Now()
	defer t.done(start)
	return t.ev.AttrPresent(v, attr)
}

func (t timedEvaluator) Release() {
	start := time.Now()
	t.ev.Release()
	t.c.index += time.Since(start)
}
