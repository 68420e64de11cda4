package discovery

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Handle identifies a pattern's materialised match state inside a Backend.
type Handle interface{}

// PatOut is the verification result of one pattern work unit.
type PatOut struct {
	H       Handle
	Support int
	Rows    int
	// OK is false if the work unit was aborted (row cap exceeded).
	OK bool
}

// Backend supplies pattern matching and candidate validation to the miner.
// The sequential backend keeps one in-memory match table per pattern;
// the parallel backend (package parallel) partitions each table across
// simulated cluster workers, performs distributed incremental joins and
// aggregates validation results at the master, charging communication to
// the cluster cost model.
//
// Seeding and extension are batched at level granularity: ParDis
// distributes all of a level's work units (Q, e) across the workers in one
// superstep (Section 6.2), so per-pattern round trips would misrepresent
// its cost.
type Backend interface {
	// SeedBatch materialises the matches of single-node patterns.
	SeedBatch(ps []*pattern.Pattern) []PatOut
	// ExtendBatch materialises each child's matches from its parent's by
	// incremental join (children[i] = parent pattern of parents[i] plus
	// one edge).
	ExtendBatch(parents []Handle, children []*pattern.Pattern) []PatOut
	// Release frees a pattern's match state.
	Release(h Handle)
	// Evaluate builds the literal-satisfaction index of the pool over the
	// pattern's matches. The caller must Release the evaluator.
	Evaluate(h Handle, pool []core.Literal) Evaluator
	// Constants returns, for every (variable, attribute ∈ gamma) pair, the
	// up-to-max most frequent observed values at that variable across the
	// pattern's matches, indexed [v*len(gamma)+ai]. Batched so the
	// parallel backend collects all pairs in a single superstep.
	Constants(h Handle, nvars int, gamma []string, max int) [][]string
}

// Evaluator answers candidate-validation queries for one pattern against
// one literal pool. X arguments are sorted indexes into the pool, held in
// the driver's reused scratch: implementations read them during the call
// and must not retain them.
type Evaluator interface {
	// Violated reports whether some match satisfies all of X but not l:
	// G ⊭ Q[x̄](X → pool[l]).
	Violated(x []int, l int) bool
	// SupportXl returns |Q(G, Xl, z)|: distinct pivots over matches
	// satisfying X and l.
	SupportXl(x []int, l int) int
	// SupportX returns |Q(G, X, z)|.
	SupportX(x []int) int
	// CoHolds reports, for every pool literal j, whether some match
	// satisfies X ∪ {j}. NHSpawn emits a negative GFD for each j with
	// CoHolds[j] == false (Section 5.1).
	CoHolds(x []int) []bool
	// AttrPresent reports whether attribute attr occurs at variable v in
	// at least one match (the plausibility filter for negative literals).
	AttrPresent(v int, attr string) bool
	// Release frees the evaluator's index.
	Release()
}

// ---------------------------------------------------------------------------
// Sequential backend
// ---------------------------------------------------------------------------

// SeqBackend is the single-machine Backend: one match table per pattern,
// bitset-indexed literal evaluation. It matches against any graph.View —
// normally the full graph, but a fragment view works identically, which is
// what the parallel backend's per-worker evaluation builds on.
//
// A level's ExtendBatch work units are independent, so they run on a
// GOMAXPROCS-bounded worker pool; results are merged in deterministic
// level order, so output is identical to a serial run.
type SeqBackend struct {
	v        graph.View
	maxRows  int
	stats    *Stats
	liveRows int
	cols     *Columns // Γ columns, resolved on first use
	// Reusable scratches: constant counts, pivot counts and the compiled
	// pool, which NewTableEval does not retain (Constants, Evaluate and
	// the evaluator's queries are driver-serial).
	vc       *ValueCounter
	pc       *PivotCounter
	compiled []eval.CompiledLiteral
}

// NewSeqBackend returns a sequential backend over v. maxRows caps match
// tables (0 = unlimited); stats, when non-nil, receives table counters.
func NewSeqBackend(v graph.View, maxRows int, stats *Stats) *SeqBackend {
	if g, ok := v.(*graph.Graph); ok {
		// Compile the CSR up front: ExtendBatch reads the view from several
		// goroutines, and a lazily-finalizing graph is not a concurrent-safe
		// reader until finalized.
		g.Finalize()
	}
	// Build the extend kernel's label signatures here, not in the first
	// join.
	graph.LabelSigsFor(v)
	return &SeqBackend{v: v, maxRows: maxRows, stats: stats, cols: NewColumns(v)}
}

// View exposes the matching surface the backend runs against.
func (b *SeqBackend) View() graph.View { return b.v }

type seqHandle struct {
	table *match.Table
}

func (b *SeqBackend) bookkeep(rows int) {
	b.liveRows += rows
	if b.stats == nil {
		return
	}
	b.stats.TotalTableRows += rows
	if rows > b.stats.MaxTableRows {
		b.stats.MaxTableRows = rows
	}
	if b.liveRows > b.stats.PeakLiveRows {
		b.stats.PeakLiveRows = b.liveRows
	}
}

// SeedBatch implements Backend.
func (b *SeqBackend) SeedBatch(ps []*pattern.Pattern) []PatOut {
	out := make([]PatOut, len(ps))
	for i, p := range ps {
		t := match.NewSingleNodeTable(b.v, p)
		b.bookkeep(t.Len())
		out[i] = PatOut{H: &seqHandle{table: t}, Support: t.Support(), Rows: t.Len(), OK: true}
	}
	return out
}

// stealMinChunk is the smallest parent-row range worth making a separate
// stealable unit in ExtendBatch: below it the Slice/merge overhead of a
// chunk outweighs the balance gain, so smaller parents stay whole.
const stealMinChunk = 4096

// stealUnit is one unit of the level's work: either a whole child
// (whole=true) or one parent-row chunk [lo, hi) of a large child.
type stealUnit struct {
	child, chunkIdx, lo, hi int
	whole                   bool
}

// ExtendBatch implements Backend: the level's incremental joins run
// concurrently on a GOMAXPROCS-bounded pool of workers pulling from a
// shared atomic work cursor (each unit only reads the immutable view and
// its own parent-table rows). Children with large parent tables are split
// into parent-row chunks so one fat pattern — a hub-heavy pivot run —
// cannot serialise the level behind a single worker: idle workers steal
// its remaining chunks. The last worker to finish a child's chunks
// concatenates them in chunk order, which reproduces the unchunked row
// order exactly (extension emits rows per parent row in order), and the
// results — including supports, computed inside the workers — are folded
// into stats and PatOuts in level order afterwards, so the output and
// every counter are independent of scheduling.
func (b *SeqBackend) ExtendBatch(parents []Handle, children []*pattern.Pattern) []PatOut {
	type ext struct {
		t       *match.Table
		support int
	}
	exts := make([]ext, len(children))
	finish := func(i int, t *match.Table) {
		sup := 0
		if b.maxRows <= 0 || t.Len() <= b.maxRows {
			sup = t.Support()
		}
		exts[i] = ext{t: t, support: sup}
	}
	workers := min(runtime.GOMAXPROCS(0), len(children))
	if workers <= 1 {
		for i := range children {
			finish(i, match.ExtendRows(b.v, parents[i].(*seqHandle).table, children[i]))
		}
	} else {
		var units []stealUnit
		chunkTabs := make([][]*match.Table, len(children))
		remaining := make([]atomic.Int32, len(children))
		for i := range children {
			pt := parents[i].(*seqHandle).table
			rows := pt.Len()
			// Chunk on estimated output, not input: a hub parent with few
			// rows but huge fan-out is exactly the child that serialises a
			// level when it stays whole. Never chunk less than the row rule
			// would — the estimate only adds parallelism.
			cost := max(rows, match.EstimateExtendRows(b.v, pt, children[i]))
			n := 1
			if cost >= 2*stealMinChunk {
				n = min(min(2*workers, cost/stealMinChunk), rows)
				n = max(n, 1)
			}
			if n == 1 {
				units = append(units, stealUnit{child: i, whole: true})
			} else {
				size := (rows + n - 1) / n
				c := 0
				for lo := 0; lo < rows; lo += size {
					units = append(units, stealUnit{child: i, chunkIdx: c, lo: lo, hi: min(lo+size, rows)})
					c++
				}
				n = c
			}
			chunkTabs[i] = make([]*match.Table, n)
			remaining[i].Store(int32(n))
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := int(cursor.Add(1)) - 1
					if u >= len(units) {
						return
					}
					unit := units[u]
					pt := parents[unit.child].(*seqHandle).table
					var start time.Time
					if !unit.whole {
						pt = pt.Slice(unit.lo, unit.hi)
						start = time.Now()
					}
					chunkTabs[unit.child][unit.chunkIdx] = match.ExtendRows(b.v, pt, children[unit.child])
					if !unit.whole {
						mStealChunks.Inc()
						hStealChunk.ObserveSince(start)
					}
					if remaining[unit.child].Add(-1) != 0 {
						continue
					}
					// Last chunk of this child: every other chunk's write
					// happens-before its decrement, so the merge sees them all.
					tabs := chunkTabs[unit.child]
					full := tabs[0]
					if len(tabs) > 1 {
						full = match.NewTable(children[unit.child])
						for _, ct := range tabs {
							full.AppendRows(ct, 0, ct.Len())
						}
					}
					finish(unit.child, full)
				}
			}()
		}
		wg.Wait()
	}

	out := make([]PatOut, len(children))
	for i, e := range exts {
		if b.maxRows > 0 && e.t.Len() > b.maxRows {
			if b.stats != nil {
				b.stats.Aborted++
			}
			continue
		}
		b.bookkeep(e.t.Len())
		out[i] = PatOut{H: &seqHandle{table: e.t}, Support: e.support, Rows: e.t.Len(), OK: true}
	}
	return out
}

// Release implements Backend.
func (b *SeqBackend) Release(h Handle) {
	if h == nil {
		return
	}
	sh := h.(*seqHandle)
	if sh.table != nil {
		b.liveRows -= sh.table.Len()
		sh.table = nil
	}
}

// Constants implements Backend: every (variable, attribute) pair is one
// scan of the table's column against the attribute's resolved column,
// counting ValueIDs into a shared dense scratch (constants.go).
func (b *SeqBackend) Constants(h Handle, nvars int, gamma []string, max int) [][]string {
	t := h.(*seqHandle).table
	out := make([][]string, nvars*len(gamma))
	cols := make([]graph.AttrColumn, len(gamma))
	for ai, attr := range gamma {
		cols[ai] = b.cols.Column(attr)
	}
	if b.vc == nil {
		b.vc = NewValueCounter(b.v.NumValues())
	}
	vc := b.vc
	for v := 0; v < nvars; v++ {
		col := t.Col(v)
		for ai := range gamma {
			vc.CountColumn(cols[ai], col)
			out[v*len(gamma)+ai] = vc.Top(max, b.v.ValueName)
		}
	}
	return out
}

// Evaluate implements Backend.
func (b *SeqBackend) Evaluate(h Handle, pool []core.Literal) Evaluator {
	if b.pc == nil {
		b.pc = NewPivotCounter(b.v.NumNodes())
	}
	b.compiled = b.cols.Compile(b.compiled, pool)
	return NewTableEval(b.cols, h.(*seqHandle).table, b.compiled, b.pc)
}

// TableEval indexes literal satisfaction per match row as bitsets and
// answers validation queries in O(rows/64) words. It is the per-worker
// evaluation unit: the sequential backend uses one over the whole table,
// the parallel backend one per worker's part.
type TableEval struct {
	cols   *Columns
	t      *match.Table
	pivots []graph.NodeID // the table's pivot column (shared storage)
	sat    []Bitset       // per pool literal
	full   Bitset         // all rows
	buf    Bitset         // scratch for AND(X) with |X| ≥ 2, made on first use
	pc     *PivotCounter  // distinct-pivot scratch of SupportXl and SupportX
}

// NewTableEval builds the satisfaction index of a compiled pool over the
// columnar table t: one column scan per literal (CompiledLiteral.SatRows),
// with the pivot column shared with the table, not copied. The pool is
// read only during the call. cols must be the Columns the pool was
// compiled against; AttrPresent reads them. pc may be shared by
// evaluators whose queries never run concurrently.
func NewTableEval(cols *Columns, t *match.Table, pool []eval.CompiledLiteral, pc *PivotCounter) *TableEval {
	n := t.Len()
	words := (n + 63) / 64
	// One allocation: a bitmap per literal, then the all-rows bitmap.
	backing := make(Bitset, words*(len(pool)+1))
	e := &TableEval{
		cols:   cols,
		t:      t,
		pivots: t.PivotCol(),
		sat:    make([]Bitset, len(pool)),
		full:   backing[len(pool)*words:],
		pc:     pc,
	}
	e.full.Fill(n)
	for j := range pool {
		e.sat[j] = backing[j*words : (j+1)*words : (j+1)*words]
		pool[j].SatRows(t, e.sat[j].Set)
	}
	return e
}

// andX returns AND over the X bitmaps. The result may alias the index
// (all rows for an empty X, the literal's own bitmap for a single one),
// so callers only read it.
func (e *TableEval) andX(x []int) Bitset {
	switch len(x) {
	case 0:
		return e.full
	case 1:
		return e.sat[x[0]]
	}
	if e.buf == nil {
		e.buf = make(Bitset, len(e.full))
	}
	e.buf.CopyFrom(e.sat[x[0]])
	for _, j := range x[1:] {
		e.buf.AndWith(e.sat[j])
	}
	return e.buf
}

// Violated implements Evaluator.
func (e *TableEval) Violated(x []int, l int) bool {
	return e.andX(x).AnyAndNot(e.sat[l])
}

// ViolationTable answers, in one pass, Violated for every X of at most
// one literal and every pool literal l. With p pool literals, row r of
// the table is X = ∅ at r = 0 and X = {r−1} above, and bit r·p + l of
// dst is set iff some row satisfies X but not l. dst must hold (p+1)·p
// bits, all zero. An X no row satisfies violates nothing, so its row is
// skipped.
func (e *TableEval) ViolationTable(dst Bitset) {
	p := len(e.sat)
	for r := 0; r <= p; r++ {
		ax := e.rowX(r)
		if !ax.Any() {
			continue
		}
		for l, sl := range e.sat {
			if ax.AnyAndNot(sl) {
				dst.Set(r*p + l)
			}
		}
	}
}

// rowX returns the rows satisfying the X of ViolationTable's row r, as
// andX does: all rows at r = 0, those of literal r−1 above.
func (e *TableEval) rowX(r int) Bitset {
	if r == 0 {
		return e.full
	}
	return e.sat[r-1]
}

// AddPivotsXl adds to pc the pivots of rows satisfying X ∧ l — the local
// support set a ParDis worker ships to the master.
func (e *TableEval) AddPivotsXl(x []int, l int, pc *PivotCounter) {
	e.andX(x).ForEachAnd(e.sat[l], func(i int) { pc.Add(e.pivots[i]) })
}

// AddPivotsX adds to pc the pivots of rows satisfying X.
func (e *TableEval) AddPivotsX(x []int, pc *PivotCounter) {
	e.andX(x).ForEach(func(i int) { pc.Add(e.pivots[i]) })
}

// AppendRowPivots resets pc and appends to dst the distinct pivots of
// the rows satisfying the X of ViolationTable's row r, in row order: the
// local support set of X that a ParDis worker ships to the master.
func (e *TableEval) AppendRowPivots(dst []graph.NodeID, r int, pc *PivotCounter) []graph.NodeID {
	pc.Reset()
	for wi, w := range e.rowX(r) {
		for ; w != 0; w &= w - 1 {
			if v := e.pivots[wi<<6|bits.TrailingZeros64(w)]; pc.Add(v) {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// SupportXl implements Evaluator.
func (e *TableEval) SupportXl(x []int, l int) int {
	e.pc.Reset()
	e.AddPivotsXl(x, l, e.pc)
	return e.pc.Len()
}

// SupportX implements Evaluator.
func (e *TableEval) SupportX(x []int) int {
	e.pc.Reset()
	e.AddPivotsX(x, e.pc)
	return e.pc.Len()
}

// CoHolds implements Evaluator.
func (e *TableEval) CoHolds(x []int) []bool {
	out := make([]bool, len(e.sat))
	e.OrCoHolds(x, out)
	return out
}

// OrCoHolds sets out[j] for every pool literal j that holds together with
// X on some row, leaving the other entries as they are: the master ORs
// the workers' flags into one slice.
func (e *TableEval) OrCoHolds(x []int, out []bool) {
	ax := e.andX(x)
	for j := range e.sat {
		if ax.AnyAnd(e.sat[j]) {
			out[j] = true
		}
	}
}

// AttrPresent implements Evaluator: a scan of the variable's column that
// stops at the first node carrying the attribute.
func (e *TableEval) AttrPresent(v int, attr string) bool {
	if d := e.cols.Column(attr).Dense(); d != nil {
		for _, node := range e.t.Col(v) {
			if d[node] != graph.NoValue {
				return true
			}
		}
	}
	return false
}

// Release implements Evaluator.
func (e *TableEval) Release() {
	e.sat = nil
	e.t = nil
	e.pivots = nil
}
