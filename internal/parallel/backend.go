package parallel

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Options configures the parallel backend.
type Options struct {
	// LoadBalance redistributes skewed match tables across workers after
	// each incremental join (Section 6.2); disabling it yields the
	// ParGFDnb baseline.
	LoadBalance bool
	// SkewFactor triggers redistribution when the largest per-worker table
	// exceeds SkewFactor × mean. Default 1.25.
	SkewFactor float64
	// MaxTableRows aborts extensions whose global table would exceed this
	// many rows. 0 = unlimited.
	MaxTableRows int
	// WorkSteal lets idle workers steal parent-row chunks of other
	// workers' incremental-join work during the extend superstep, so a
	// hub-heavy fragment cannot serialise a level behind one worker. It
	// only engages in cluster Concurrent mode with no remote fragments
	// (under Makespan the workers run sequentially and stealing would
	// corrupt busy-time attribution; remote wire-byte draining attributes
	// per worker). The mined output is identical either way.
	WorkSteal bool
	// Membership, if set, is consulted at every superstep boundary —
	// before each seed and extend batch — so cluster-map changes (a
	// member joining or replacing a dead one) are applied between
	// supersteps, never inside one. The remote package's Balancer
	// satisfies it.
	Membership interface{ ApplyAtBoundary() }
}

func (o Options) withDefaults() Options {
	if o.SkewFactor <= 0 {
		o.SkewFactor = 1.25
	}
	return o
}

// Backend is the ParDis worker pool: it implements discovery.Backend with
// per-fragment match tables, distributed incremental joins (each worker
// joins its local matches Q(F_s) with the shipped single-edge matches
// e(F_t) of all fragments), match redistribution for load balancing, and
// master-side aggregation of supports (pivot-set unions) and validation
// flags.
type Backend struct {
	g     graph.View
	eng   *cluster.Engine
	frags []Fragment
	opts  Options
	stats *discovery.Stats
	// ctx, when cancelled, makes the batch entry points (the superstep
	// boundaries) return failed PatOuts instead of doing work, so the
	// mining driver's frontier drains and the run stops cleanly between
	// supersteps.
	ctx context.Context
	// transferTrackers are the remote fragment views in frags (detected
	// structurally — the remote package is not imported). Their wire-byte
	// counters are drained after each worker's join and charged as
	// measured communication, replacing the declared cost-model volume.
	transferTrackers []transferTracker
	// hedgeTrackers are the fragment views exposing drainable hedged-read
	// counters (remote fragments with hedging enabled); drained at each
	// batch tail into the engine's Stats.
	hedgeTrackers []hedgeTracker
	// localOthers[w] counts the non-remote fragments t ≠ w whose
	// single-edge matches worker w still receives at declared cost.
	localOthers []int64
	// workerViews[w] is the view order of worker w's incremental joins:
	// its own fragment index first, then the other fragments' in worker
	// order — the received e(F_t) of Section 6.2, which in the simulated
	// cluster are the other workers' SubCSR indexes (their shipment is
	// charged as communication).
	workerViews [][]graph.View
	// edgeCountCache caches |e(G)| per (srcLabel, edgeLabel, dstLabel)
	// pattern-edge shape, the volume shipped to every worker during an
	// incremental join.
	edgeCountCache map[graph.TripleKey]int64
	tripleCount    map[graph.TripleKey]int
	// cols holds the Γ columns over the master's view, resolved on first
	// use and shared read-only by every worker: fragments share the base
	// graph's node store, attribute plane and symbol pools. compiled is
	// the reusable storage of the pool Evaluate compiles for its index
	// superstep.
	cols     *discovery.Columns
	compiled []eval.CompiledLiteral
	// Counting scratches, one per worker plus the master's, made on first
	// use and reused across calls (the calls are driver-serial; within a
	// superstep each worker touches only its own).
	workerScratch []countScratch
	masterScratch countScratch
	// The single-literal tables of the live evaluator, merged at the
	// master and reused from pattern to pattern (see Evaluate): viol is
	// the (p+1)×p violation table, supp[r] the support of row r's X (−1
	// when no pair of the row needs one), and suppRows the rows the
	// support superstep counts.
	viol     discovery.Bitset
	supp     []int
	suppRows []int
}

// countScratch is one party's reusable counting state. A worker lays
// what it ships out flat: runs[i] closes the i-th run (slot, pattern or
// table row) of counts or pivots.
type countScratch struct {
	vc     *discovery.ValueCounter
	pc     *discovery.PivotCounter
	counts []discovery.ValueCount // observed (value, count) pairs per slot
	pivots []graph.NodeID         // distinct local pivots per pattern or row
	runs   []int
	viol   discovery.Bitset // the worker's violation table for its part
}

// run returns the bounds of run i.
func (s *countScratch) run(i int) (lo, hi int) {
	if i > 0 {
		lo = s.runs[i-1]
	}
	return lo, s.runs[i]
}

// NewBackend builds a ParDis backend over v fragmented across eng's
// workers: an edge-balanced vertex cut compiled into one fragment-local
// SubCSR index per worker. stats may be nil.
func NewBackend(v graph.View, eng *cluster.Engine, opts Options, stats *discovery.Stats) *Backend {
	return NewBackendWithFragments(v, eng, VertexCut(v, eng.Workers()), opts, stats)
}

// NewBackendWithFragments builds a ParDis backend over pre-built
// fragments, one per worker of eng — either the heap SubCSRs of a
// VertexCut or snapshot-backed MappedGraph fragments reattached with
// Attach, which is how workers run against spilled fragments without
// rebuilding any index. v is the master's view of the whole graph (its
// node store is shared by every fragment); stats may be nil.
func NewBackendWithFragments(v graph.View, eng *cluster.Engine, frags []Fragment, opts Options, stats *discovery.Stats) *Backend {
	return newBackend(v, eng, frags, opts, stats, graph.NewStats(v))
}

// newBackend is the shared constructor; gstats carries the full-graph
// frequency statistics so callers that already computed them (the mining
// driver builds a discovery.Profile from the same scan) do not pay a
// second O(V+E+attrs) pass over the view.
func newBackend(v graph.View, eng *cluster.Engine, frags []Fragment, opts Options, stats *discovery.Stats, gstats *graph.Stats) *Backend {
	if len(frags) != eng.Workers() {
		panic(fmt.Sprintf("parallel: %d fragments for %d workers", len(frags), eng.Workers()))
	}
	// Compile both planes (CSR and attribute columns) before the workers
	// read the graph concurrently, like the sequential backend does.
	if g, ok := v.(*graph.Graph); ok {
		g.Finalize()
	}
	b := &Backend{
		g:              v,
		eng:            eng,
		frags:          frags,
		opts:           opts.withDefaults(),
		stats:          stats,
		ctx:            context.Background(),
		edgeCountCache: make(map[graph.TripleKey]int64),
		tripleCount:    gstats.TripleCount,
		cols:           discovery.NewColumns(v),
	}
	n := eng.Workers()
	b.workerViews = make([][]graph.View, n)
	remote := make([]bool, n)
	for t := 0; t < n; t++ {
		if tt, ok := b.frags[t].Sub.(transferTracker); ok {
			remote[t] = true
			b.transferTrackers = append(b.transferTrackers, tt)
		} else {
			// The extend kernel probes local fragments: build their label
			// signatures here, not in the first timed superstep.
			graph.LabelSigsFor(b.frags[t].Sub)
		}
		if ht, ok := b.frags[t].Sub.(hedgeTracker); ok {
			b.hedgeTrackers = append(b.hedgeTrackers, ht)
		}
	}
	b.localOthers = make([]int64, n)
	for w := 0; w < n; w++ {
		views := make([]graph.View, 0, n)
		views = append(views, b.frags[w].Sub)
		for t := 0; t < n; t++ {
			if t != w {
				views = append(views, b.frags[t].Sub)
				if !remote[t] {
					b.localOthers[w]++
				}
			}
		}
		b.workerViews[w] = views
	}
	return b
}

// transferTracker is how the backend recognises a remote fragment view
// without importing the remote package: remote.RemoteFragment exposes a
// drainable counter of bytes that actually crossed its connection.
type transferTracker interface {
	TakeTransferred() int64
}

// hedgeTracker is the same structural trick for hedged replica reads:
// remote.RemoteFragment exposes drainable counters of hedges fired and
// hedges won by the local recompute.
type hedgeTracker interface {
	TakeHedges() (fired, won int64)
}

// applyMembership runs the membership hook at a superstep boundary.
func (b *Backend) applyMembership() {
	if b.opts.Membership != nil {
		b.opts.Membership.ApplyAtBoundary()
	}
}

// cancelled reports a dead context and, once per run, marks the stats.
func (b *Backend) cancelled() bool {
	if b.ctx.Err() == nil {
		return false
	}
	if b.stats != nil {
		b.stats.Cancelled = true
	}
	return true
}

// failAll is the batch result of a cancelled run: every pattern reports
// !OK, so the driver treats the whole level as infrequent and the
// generation tree stops growing — the run winds down between supersteps
// instead of mid-join.
func failAll(n int) []discovery.PatOut {
	return make([]discovery.PatOut, n)
}

// parHandle holds a pattern's columnar match table partitioned across
// workers: parts[w] is worker w's share, a *match.Table whose columns are
// either zero-copy slices of a seed table (Split by ownership) or locally
// built extension columns. Ownership is disjoint: the global match set is
// the disjoint union of the per-worker parts (each match descends from a
// seed row owned by exactly one fragment). This is exactly what ParDis
// ships between workers — flat node-ID columns, not row objects.
type parHandle struct {
	p     *pattern.Pattern
	parts []*match.Table
	rows  int
}

// recount refreshes the global row count from the per-worker parts
// (written inside supersteps, which may run concurrently).
func (h *parHandle) recount() {
	h.rows = 0
	for _, part := range h.parts {
		if part != nil {
			h.rows += part.Len()
		}
	}
}

func (b *Backend) n() int { return b.eng.Workers() }

// FragmentEdges returns the per-worker edge count of the vertex cut — the
// size of each fragment-local SubCSR index.
func (b *Backend) FragmentEdges() []int {
	out := make([]int, len(b.frags))
	for w := range b.frags {
		out[w] = b.frags[w].EdgeCount()
	}
	return out
}

func (b *Backend) bookkeep(rows int) {
	if b.stats == nil {
		return
	}
	b.stats.TotalTableRows += rows
	if rows > b.stats.MaxTableRows {
		b.stats.MaxTableRows = rows
	}
}

// SeedBatch implements discovery.Backend: each single-node pattern is
// materialised once as a columnar table (its column ascending by node ID)
// and Split by node ownership into per-fragment zero-copy column slices —
// no per-worker rescan and no row copies. Per-pattern pivot sets are then
// shipped for master-side union.
func (b *Backend) SeedBatch(ps []*pattern.Pattern) []discovery.PatOut {
	if b.cancelled() {
		return failAll(len(ps))
	}
	b.applyMembership()
	hs := make([]*parHandle, len(ps))
	for i, p := range ps {
		hs[i] = &parHandle{p: p}
	}
	b.eng.Master("seed scan", func() {
		for i, p := range ps {
			full := match.NewSingleNodeTable(b.g, p)
			hs[i].parts = b.splitByOwnership(full)
		}
	})
	out := make([]discovery.PatOut, len(ps))
	supports := b.aggregateSupports(hs)
	for i, h := range hs {
		h.recount()
		b.bookkeep(h.rows)
		out[i] = discovery.PatOut{H: h, Support: supports[i], Rows: h.rows, OK: true}
	}
	return out
}

// splitByOwnership slices a table whose pivot column is ascending by node
// ID into per-fragment parts along the fragments' contiguous ownership
// ranges. The parts share the table's column storage (Table.Split): seeding
// a level costs one scan total, not one scan per worker.
func (b *Backend) splitByOwnership(t *match.Table) []*match.Table {
	col := t.Col(0)
	cuts := make([]int, 0, b.n()-1)
	for w := 1; w < b.n(); w++ {
		lo := b.frags[w].NodeLo
		cuts = append(cuts, sort.Search(len(col), func(r int) bool { return col[r] >= lo }))
	}
	return t.Split(cuts...)
}

// ExtendBatch implements discovery.Backend: the distributed incremental
// joins Q'(F_s) = Q(F_s) ⋈ e(G) of Section 6.2, with all of the level's
// work units (Q, e) distributed across the workers in a single superstep.
// Every worker receives the other fragments' matches of each new
// single-edge pattern e (charged as communication) and extends its local
// rows against its own fragment index plus the received fragments — the
// per-worker probe surface is the fragment views, never the full graph's
// CSR, so the compute accounting reflects fragment-local work. Children
// are grouped by parent handle: a worker extends its part of a parent by
// all of that parent's children in one call, which a remote fragment
// serves as one RPC (see parentRuns).
func (b *Backend) ExtendBatch(parents []discovery.Handle, children []*pattern.Pattern) []discovery.PatOut {
	if b.cancelled() {
		return failAll(len(children))
	}
	b.applyMembership()
	hs := make([]*parHandle, len(children))
	for i, child := range children {
		hs[i] = &parHandle{p: child, parts: make([]*match.Table, b.n())}
	}
	// Pre-resolve each child's e(G) volume outside the superstep: the
	// cache map is not goroutine-safe, and the pipelined path below runs
	// parent runs concurrently.
	eBytes := make([]int64, len(children))
	for i, child := range children {
		eBytes[i] = b.edgeMatchBytes(child)
	}
	if b.opts.WorkSteal && b.eng.IsConcurrent() && len(b.transferTrackers) == 0 {
		b.extendBatchStealing(parents, children, hs, eBytes)
		return b.extendBatchFinish(hs)
	}
	runs := parentRuns(parents)
	// Every worker receives e(F_t) for the local fragments t ≠ w at the
	// cost model's declared share, declared before the superstep so the
	// bookkeeping is not timed as worker compute; remote fragments are
	// charged inside it from bytes measured on their connections.
	for w := 0; w < b.n(); w++ {
		for i := range children {
			b.eng.Ship(w, eBytes[i]/int64(b.n())*b.localOthers[w])
		}
	}
	b.eng.Superstep("extend level", func(w int) {
		extendRun := func(run parentRun) {
			if run.parent.parts == nil {
				return
			}
			tabs := match.ExtendRowsViewsBatch(b.workerViews[w], run.parent.parts[w], children[run.lo:run.hi])
			for j, tab := range tabs {
				hs[run.lo+j].parts[w] = tab
			}
		}
		if len(b.transferTrackers) > 0 {
			// Remote fragments present: the level's joins are
			// network-bound, so run the parent runs concurrently and let
			// their batches pipeline over the fragments' multiplexed
			// connections instead of queueing round trips run by run.
			// Writes are disjoint (each child owns hs[i].parts[w]) and the
			// engine's Ship accounting is mutex-guarded.
			var wg sync.WaitGroup
			for _, run := range runs {
				wg.Add(1)
				go func(run parentRun) {
					defer wg.Done()
					extendRun(run)
				}(run)
			}
			wg.Wait()
		} else {
			// Purely simulated cluster: keep the serial loop so per-worker
			// busy-time measurement stays undistorted by local parallelism.
			for _, run := range runs {
				extendRun(run)
			}
		}
		// Real comms replace declared volume for remote fragments: drain
		// each remote view's wire-byte counter accrued by this worker's
		// joins. (In Makespan mode workers run sequentially, so the drain
		// attributes bytes to the worker that caused them.)
		for _, tt := range b.transferTrackers {
			b.eng.ShipMeasured(w, tt.TakeTransferred())
		}
	})
	return b.extendBatchFinish(hs)
}

// parentRun is a run of consecutive children of a level's batch that
// extend the same parent handle: children[lo:hi]. A worker extends its
// part of the parent by the whole run in one call, so a remote fragment
// receives that part once, not once per child. The mining driver emits
// each parent's children consecutively, so a parent makes one run per
// level; were they interleaved, a parent would only cost more calls.
type parentRun struct {
	parent *parHandle
	lo, hi int
}

// parentRuns splits a level's batch into maximal runs of children that
// share a parent handle.
func parentRuns(parents []discovery.Handle) []parentRun {
	var runs []parentRun
	for i, h := range parents {
		ph := h.(*parHandle)
		if n := len(runs); n > 0 && runs[n-1].parent == ph {
			runs[n-1].hi = i + 1
			continue
		}
		runs = append(runs, parentRun{parent: ph, lo: i, hi: i + 1})
	}
	return runs
}

// extendBatchFinish is the driver-serial tail of ExtendBatch, shared by
// the static and work-stealing supersteps: row recount, abort on the row
// cap, optional rebalance, and master-side support aggregation.
func (b *Backend) extendBatchFinish(hs []*parHandle) []discovery.PatOut {
	for _, ht := range b.hedgeTrackers {
		b.eng.RecordHedges(ht.TakeHedges())
	}
	out := make([]discovery.PatOut, len(hs))
	aborted := make([]bool, len(hs))
	for i, h := range hs {
		h.recount()
		if b.opts.MaxTableRows > 0 && h.rows > b.opts.MaxTableRows {
			if b.stats != nil {
				b.stats.Aborted++
			}
			aborted[i] = true
			continue
		}
		b.bookkeep(h.rows)
	}
	if b.opts.LoadBalance {
		b.rebalanceBatch(hs, aborted)
	}
	supports := b.aggregateSupports(hs)
	for i, h := range hs {
		if aborted[i] {
			continue
		}
		out[i] = discovery.PatOut{H: h, Support: supports[i], Rows: h.rows, OK: true}
	}
	return out
}

// stealMinChunk is the smallest parent-row range worth carving into a
// separate stealable unit; smaller parts stay whole (mirrors the
// sequential backend's chunk policy).
const stealMinChunk = 4096

// extendBatchStealing runs the extend superstep with a shared atomic work
// cursor: the level's (child, owner-part) joins are pre-split into
// parent-row chunk units, and every worker — after charging its own
// declared communication share — pulls units off the cursor regardless of
// owner, so workers finishing their own fragment's share early steal the
// remaining chunks of a skewed one. Each unit joins the owner's rows
// against the owner's view order (b.workerViews[owner]), and the last
// worker to finish an (i, owner) slot concatenates its chunks in chunk
// order, so hs[i].parts[owner] is byte-identical to what the static
// superstep produces.
func (b *Backend) extendBatchStealing(parents []discovery.Handle, children []*pattern.Pattern, hs []*parHandle, eBytes []int64) {
	n := b.n()
	type unit struct {
		child, owner, chunkIdx, lo, hi int
		whole                          bool
	}
	var units []unit
	chunkTabs := make([][]*match.Table, len(children)*n)
	remaining := make([]atomic.Int32, len(children)*n)
	for i := range children {
		ph := parents[i].(*parHandle)
		if ph.parts == nil {
			continue
		}
		for o := 0; o < n; o++ {
			rows := ph.parts[o].Len()
			// Chunk on estimated output, not input (see the sequential
			// backend): a hub-heavy part with few rows and huge fan-out
			// must not stay whole. The estimate never reduces chunking.
			cost := max(rows, match.EstimateExtendRows(b.g, ph.parts[o], children[i]))
			k := 1
			if cost >= 2*stealMinChunk {
				k = min(min(2*n, cost/stealMinChunk), rows)
				k = max(k, 1)
			}
			slot := i*n + o
			if k == 1 {
				units = append(units, unit{child: i, owner: o, whole: true})
			} else {
				size := (rows + k - 1) / k
				c := 0
				for lo := 0; lo < rows; lo += size {
					units = append(units, unit{child: i, owner: o, chunkIdx: c, lo: lo, hi: min(lo+size, rows)})
					c++
				}
				k = c
			}
			chunkTabs[slot] = make([]*match.Table, k)
			remaining[slot].Store(int32(k))
		}
	}
	var cursor atomic.Int64
	b.eng.Superstep("extend level", func(w int) {
		for i := range children {
			b.eng.Ship(w, eBytes[i]/int64(n)*b.localOthers[w])
		}
		for {
			u := int(cursor.Add(1)) - 1
			if u >= len(units) {
				return
			}
			ut := units[u]
			pt := parents[ut.child].(*parHandle).parts[ut.owner]
			var start time.Time
			if !ut.whole {
				pt = pt.Slice(ut.lo, ut.hi)
				start = time.Now()
			}
			slot := ut.child*n + ut.owner
			chunkTabs[slot][ut.chunkIdx] = match.ExtendRowsViews(b.workerViews[ut.owner], pt, children[ut.child])
			if !ut.whole {
				mStealChunks.Inc()
				hStealChunk.ObserveSince(start)
			}
			if remaining[slot].Add(-1) != 0 {
				continue
			}
			// Last chunk of this slot: every other chunk's write
			// happens-before its decrement, so the merge sees them all.
			tabs := chunkTabs[slot]
			full := tabs[0]
			if len(tabs) > 1 {
				full = match.NewTable(children[ut.child])
				for _, ct := range tabs {
					full.AppendRows(ct, 0, ct.Len())
				}
			}
			hs[ut.child].parts[ut.owner] = full
		}
	})
}

// edgeMatchBytes estimates the byte volume of e(G): the matches of the
// child's new single-edge pattern across the whole graph, which the join
// ships to every worker.
func (b *Backend) edgeMatchBytes(child *pattern.Pattern) int64 {
	e := child.LastEdge()
	key := graph.TripleKey{
		SrcLabel:  child.NodeLabels[e.Src],
		EdgeLabel: e.Label,
		DstLabel:  child.NodeLabels[e.Dst],
	}
	if v, ok := b.edgeCountCache[key]; ok {
		return v
	}
	var cnt int64
	for t, c := range b.tripleCount {
		if pattern.LabelMatches(t.SrcLabel, key.SrcLabel) &&
			pattern.LabelMatches(t.EdgeLabel, key.EdgeLabel) &&
			pattern.LabelMatches(t.DstLabel, key.DstLabel) {
			cnt += int64(c)
		}
	}
	v := cnt * 12 // two node IDs + label tag per edge match
	b.edgeCountCache[key] = v
	return v
}

// rebalanceBatch redistributes the rows of every skewed pattern in the
// batch (the skew condition of Section 6.2) in one superstep, charging the
// moved rows as communication to their receivers.
func (b *Backend) rebalanceBatch(hs []*parHandle, skip []bool) {
	n := b.n()
	if n == 1 {
		return
	}
	var skewed []*parHandle
	for i, h := range hs {
		if skip[i] || h.rows == 0 {
			continue
		}
		maxRows := 0
		for _, part := range h.parts {
			if part.Len() > maxRows {
				maxRows = part.Len()
			}
		}
		mean := float64(h.rows) / float64(n)
		if float64(maxRows) > b.opts.SkewFactor*mean && maxRows-int(mean) >= 2 {
			skewed = append(skewed, h)
		}
	}
	if len(skewed) == 0 {
		return
	}
	// Masterside: carve the surplus of every over-target part as zero-copy
	// column slices (Table.Split at the target offset) and pre-assign
	// consecutive surplus ranges to the under-target workers. Only the
	// receiving append copies column data — that copy is the shipped volume.
	type grab struct {
		seg    *match.Table
		lo, hi int
	}
	assigns := make([][][]grab, len(skewed)) // [skewed][worker][]grab
	for i, h := range skewed {
		target := (h.rows + n - 1) / n
		var segs []grab
		for w := range h.parts {
			if h.parts[w].Len() > target {
				halves := h.parts[w].Split(target)
				h.parts[w] = halves[0]
				segs = append(segs, grab{seg: halves[1], lo: 0, hi: halves[1].Len()})
			}
		}
		assigns[i] = make([][]grab, n)
		si := 0
		for w := 0; w < n && si < len(segs); w++ {
			need := target - h.parts[w].Len()
			for need > 0 && si < len(segs) {
				g := segs[si]
				take := g.hi - g.lo
				if take > need {
					take = need
				}
				assigns[i][w] = append(assigns[i][w], grab{seg: g.seg, lo: g.lo, hi: g.lo + take})
				segs[si].lo += take
				if segs[si].lo == segs[si].hi {
					si++
				}
				need -= take
			}
		}
		// The surplus always fits: with target = ceil(rows/n), total
		// receiver capacity Σ(target−len) ≥ Σ(len−target) = surplus, so the
		// loop above drains every segment.
	}
	b.eng.Superstep("rebalance level", func(w int) {
		for i, h := range skewed {
			rowBytes := int64(4*h.p.N() + 8)
			for _, g := range assigns[i][w] {
				h.parts[w].AppendRows(g.seg, g.lo, g.hi)
				b.eng.Ship(w, int64(g.hi-g.lo)*rowBytes)
			}
		}
	})
}

// scratch returns the workers' and the master's counting scratches,
// making them on first use.
func (b *Backend) scratch() ([]countScratch, *countScratch) {
	if b.workerScratch == nil {
		b.workerScratch = make([]countScratch, b.n())
		for w := range b.workerScratch {
			b.workerScratch[w] = countScratch{
				vc: discovery.NewValueCounter(b.g.NumValues()),
				pc: discovery.NewPivotCounter(b.g.NumNodes()),
			}
		}
		b.masterScratch = countScratch{
			vc: discovery.NewValueCounter(b.g.NumValues()),
			pc: discovery.NewPivotCounter(b.g.NumNodes()),
		}
	}
	return b.workerScratch, &b.masterScratch
}

// aggregateSupports computes supp(Q, G) = |Q(G, z)| for every pattern in
// the batch: each worker collects its distinct local pivots per pattern
// and ships them; the master unions them (summing would double-count
// pivots matched in several fragments).
func (b *Backend) aggregateSupports(hs []*parHandle) []int {
	scratch, master := b.scratch()
	b.eng.Superstep("support level", func(w int) {
		s := &scratch[w]
		s.pivots, s.runs = s.pivots[:0], s.runs[:0]
		for _, h := range hs {
			s.pc.Reset()
			if h.parts != nil {
				for _, v := range h.parts[w].PivotCol() {
					if s.pc.Add(v) {
						s.pivots = append(s.pivots, v)
					}
				}
			}
			s.runs = append(s.runs, len(s.pivots))
		}
		b.eng.Ship(w, int64(4*len(s.pivots)))
	})
	out := make([]int, len(hs))
	b.eng.Master("support union", func() {
		for i := range hs {
			out[i] = unionRun(scratch, master.pc, i)
		}
	})
	return out
}

// unionRun returns the number of distinct pivots in run i of the
// workers' scratches, counted in pc.
func unionRun(scratch []countScratch, pc *discovery.PivotCounter, i int) int {
	pc.Reset()
	for w := range scratch {
		lo, hi := scratch[w].run(i)
		for _, v := range scratch[w].pivots[lo:hi] {
			pc.Add(v)
		}
	}
	return pc.Len()
}

// Release implements discovery.Backend.
func (b *Backend) Release(h discovery.Handle) {
	if h != nil {
		h.(*parHandle).parts = nil
	}
}

// Constants implements discovery.Backend: each worker counts the interned
// values of every (variable, attribute) pair over its fragment's rows in
// one superstep — a column scan into a dense ValueID-indexed scratch — and
// ships the observed (ValueID, count) pairs (ValueIDs are global: every
// fragment shares the base graph's value pool, so no translation is
// needed). The master merges the pairs by ValueID and ranks them, with
// value strings resolved only for the final ordering.
func (b *Backend) Constants(h discovery.Handle, nvars int, gamma []string, max int) [][]string {
	ph := h.(*parHandle)
	slots := nvars * len(gamma)
	cols := make([]graph.AttrColumn, len(gamma))
	for ai, attr := range gamma {
		cols[ai] = b.cols.Column(attr)
	}
	scratch, master := b.scratch()
	b.eng.Superstep("constants", func(w int) {
		s := &scratch[w]
		s.counts, s.runs = s.counts[:0], s.runs[:0]
		for v := 0; v < nvars; v++ {
			col := ph.parts[w].Col(v)
			for ai := range gamma {
				s.vc.CountColumn(cols[ai], col)
				s.counts = s.vc.Drain(s.counts)
				s.runs = append(s.runs, len(s.counts))
			}
		}
		b.eng.Ship(w, int64(8*len(s.counts))) // 4-byte ValueID + 4-byte count per pair
	})
	out := make([][]string, slots)
	b.eng.Master("constants merge", func() {
		vc := master.vc
		for slot := 0; slot < slots; slot++ {
			for w := range scratch {
				lo, hi := scratch[w].run(slot)
				for _, p := range scratch[w].counts[lo:hi] {
					vc.Add(p.Val, p.N)
				}
			}
			out[slot] = vc.Top(max, b.g.ValueName)
		}
	})
	return out
}

// Evaluate implements discovery.Backend: one TableEval per worker over
// its part of the rows, built in one index superstep with the pool
// compiled once before it. The same superstep answers every Violated
// query over an X of at most one literal: each worker fills the (p+1)×p
// violation table of its part (TableEval.ViolationTable) and ships it,
// and the master ORs the tables. A second superstep collects the
// supports the table can serve. A pair X → l that no row violates has
// the rows of X ∧ l equal to those of X on every part, so SupportXl of
// every such pair of a row is the support of the row's X alone: each
// worker ships its distinct local pivots of X for every row holding such
// a pair (l ∉ X), and the master unions them (rebalanced parts share
// pivots, so a sum would double-count). At MaxX = 1 the driver's Violated
// and SupportXl queries are then table lookups. Every other query — an X
// of two or more literals, CoHolds, SupportX, AttrPresent, SupportXl of a
// violated pair — fans out to the workers' evaluators one query at a
// time, and its busy time is charged on Release.
//
// The tables live in the backend's reused storage, so the next Evaluate
// overwrites them: release an evaluator before evaluating the next
// pattern, as the mining driver does.
func (b *Backend) Evaluate(h discovery.Handle, pool []core.Literal) discovery.Evaluator {
	ph := h.(*parHandle)
	scratch, master := b.scratch()
	pe := &parEvaluator{
		b:     b,
		pool:  pool,
		evs:   make([]*discovery.TableEval, b.n()),
		busy:  make([]time.Duration, b.n()),
		ship:  make([]int64, b.n()),
		share: make([]float64, b.n()),
		union: master.pc,
	}
	total := ph.rows
	for w := range pe.share {
		if total > 0 {
			pe.share[w] = float64(ph.parts[w].Len()) / float64(total)
		} else {
			pe.share[w] = 1 / float64(b.n())
		}
	}
	b.compiled = b.cols.Compile(b.compiled, pool)
	p := len(pool)
	words := ((p+1)*p + 63) / 64
	b.eng.Superstep("index "+ph.p.String(), func(w int) {
		ev := discovery.NewTableEval(b.cols, ph.parts[w], b.compiled, pe.union)
		pe.evs[w] = ev
		s := &scratch[w]
		s.viol = zeroed(s.viol, words)
		ev.ViolationTable(s.viol)
		b.eng.Ship(w, int64(((p+1)*p+7)/8))
	})
	b.eng.Master("violation merge", func() {
		b.viol = zeroed(b.viol, words)
		for w := range scratch {
			for i, word := range scratch[w].viol {
				b.viol[i] |= word
			}
		}
		b.supp = b.supp[:0]
		b.suppRows = b.suppRows[:0]
		for r := 0; r <= p; r++ {
			b.supp = append(b.supp, -1)
			for l := 0; l < p; l++ {
				if l != r-1 && !b.viol.Get(r*p+l) {
					b.suppRows = append(b.suppRows, r)
					break
				}
			}
		}
	})
	if len(b.suppRows) == 0 {
		return pe
	}
	b.eng.Superstep("single-literal supports", func(w int) {
		s := &scratch[w]
		s.pivots, s.runs = s.pivots[:0], s.runs[:0]
		for _, r := range b.suppRows {
			s.pivots = pe.evs[w].AppendRowPivots(s.pivots, r, s.pc)
			s.runs = append(s.runs, len(s.pivots))
		}
		b.eng.Ship(w, int64(4*len(s.pivots)))
	})
	b.eng.Master("support union", func() {
		for i, r := range b.suppRows {
			b.supp[r] = unionRun(scratch, master.pc, i)
		}
	})
	return pe
}

// zeroed returns a zeroed bitset of words words, reusing b's storage when
// it is large enough.
func zeroed(b discovery.Bitset, words int) discovery.Bitset {
	if cap(b) < words {
		return make(discovery.Bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// parEvaluator answers validation queries over X sets of at most one
// literal from the backend's merged tables, and fans every other query
// out to the per-worker TableEvals.
type parEvaluator struct {
	b     *Backend
	pool  []core.Literal
	evs   []*discovery.TableEval
	busy  []time.Duration
	calls int // fan-outs since Evaluate
	// rounds counts the fan-outs that are communication rounds.
	rounds int
	union  *discovery.PivotCounter // the master's pivot union
	// share[w] is worker w's fraction of the pattern's rows: per-call
	// elapsed time is attributed proportionally (per-worker timers on the
	// sub-microsecond query path would dominate the measurement and grow
	// with n, masking the very scalability being measured). Skewed row
	// distributions therefore still surface as skewed busy times.
	share []float64
	ship  []int64 // perWorker's per-worker shipped bytes, reused
}

// tableRow returns the single-literal table row of x, or −1 when x holds
// two or more literals.
func tableRow(x []int) int {
	switch len(x) {
	case 0:
		return 0
	case 1:
		return x[0] + 1
	}
	return -1
}

// perWorker runs fn on every worker's evaluator, attributing the elapsed
// time to workers by their row share. fn returns the bytes its worker
// ships to the master, declared once the timer has stopped: the cost
// model's bookkeeping is not worker compute, and timing it would charge
// every query a constant that does not shrink with n.
func (pe *parEvaluator) perWorker(fn func(ev *discovery.TableEval) int64) {
	start := time.Now()
	for w, ev := range pe.evs {
		pe.ship[w] = fn(ev)
	}
	el := time.Since(start)
	for w := range pe.busy {
		pe.busy[w] += time.Duration(float64(el) * pe.share[w])
		pe.b.eng.Ship(w, pe.ship[w])
	}
	pe.calls++
}

func (pe *parEvaluator) Violated(x []int, l int) bool {
	if r := tableRow(x); r >= 0 {
		return pe.b.viol.Get(r*len(pe.pool) + l)
	}
	violated := false
	pe.perWorker(func(ev *discovery.TableEval) int64 {
		if ev.Violated(x, l) {
			violated = true
		}
		return 1 // SAT flag
	})
	pe.rounds++
	return violated
}

func (pe *parEvaluator) SupportXl(x []int, l int) int {
	if r := tableRow(x); r >= 0 && !pe.b.viol.Get(r*len(pe.pool)+l) && pe.b.supp[r] >= 0 {
		return pe.b.supp[r]
	}
	pe.union.Reset()
	pe.perWorker(func(ev *discovery.TableEval) int64 {
		before := pe.union.Len()
		ev.AddPivotsXl(x, l, pe.union)
		return int64(4 * (pe.union.Len() - before))
	})
	pe.rounds++
	return pe.union.Len()
}

func (pe *parEvaluator) SupportX(x []int) int {
	pe.union.Reset()
	pe.perWorker(func(ev *discovery.TableEval) int64 {
		before := pe.union.Len()
		ev.AddPivotsX(x, pe.union)
		return int64(4 * (pe.union.Len() - before))
	})
	pe.rounds++
	return pe.union.Len()
}

func (pe *parEvaluator) CoHolds(x []int) []bool {
	out := make([]bool, len(pe.pool))
	pe.perWorker(func(ev *discovery.TableEval) int64 {
		ev.OrCoHolds(x, out)
		return int64(len(out))
	})
	pe.rounds++
	return out
}

func (pe *parEvaluator) AttrPresent(v int, attr string) bool {
	present := false
	pe.perWorker(func(ev *discovery.TableEval) int64 {
		if ev.AttrPresent(v, attr) {
			present = true
		}
		return 1
	})
	return present
}

// Release charges the busy time of the fanned-out queries, batched into
// a bounded number of communication rounds (ParDis posts candidate
// batches ΣC_ij per literal level, not one message per candidate).
// Queries the tables answered ran in Evaluate's supersteps and charge
// nothing here.
func (pe *parEvaluator) Release() {
	if pe.calls > 0 {
		const maxRounds = 4 // ≈ one batch per literal level plus the negative spawn
		pe.b.eng.Account("validate", pe.busy, min(pe.rounds, maxRounds))
	}
	for _, ev := range pe.evs {
		if ev != nil {
			ev.Release()
		}
	}
	pe.evs = nil
}
