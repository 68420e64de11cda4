// Package discovery implements GFD discovery (Sections 4–5 of Fan et al.,
// SIGMOD 2018): the generation tree with vertical spawning (VSpawn) of
// graph patterns and horizontal spawning (HSpawn) of literal sets, the
// negative spawns NVSpawn/NHSpawn, the pruning strategies of Lemma 4, the
// sequential miner SeqDis and the cover computation SeqCover.
//
// The cover is computed over per-pattern groups (CoverGroups, Lemma 6):
// each GFD is tested only against the GFDs embedded in its pattern.
// SeqCover reduces the groups in turn; package parallel's ParCover deals
// the same groups to its workers.
//
// The miner is written against a Backend interface that supplies pattern
// matching and candidate validation: the sequential backend holds one match
// table per pattern; the parallel backend of package parallel partitions
// tables across simulated cluster workers and aggregates validation
// results, exactly the master/worker split of ParDis (Section 6.2).
package discovery

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Options configures GFD discovery. The zero value is not useful; call
// (*Options).withDefaults or use Defaults.
type Options struct {
	// K bounds the number of pattern variables (k-bounded GFDs, k ≥ 2 per
	// the problem statement in Section 4.3; k=1 is permitted here to mine
	// single-node attribute rules).
	K int
	// Support is the threshold σ: only GFDs with supp(φ, G) ≥ σ are
	// emitted.
	Support int
	// ActiveAttrs is the attribute set Γ literals draw from. Empty means
	// the 5 most frequent attributes of the graph (the paper's setting).
	ActiveAttrs []string
	// ConstantsPerAttr caps the constants per (variable, attribute) used in
	// literal spawning, taken as the most frequent observed values (the
	// paper uses the 5 most frequent values per attribute).
	ConstantsPerAttr int
	// MaxX bounds |X|, the number of left-hand-side literals of positive
	// GFDs. The paper's theoretical bound J = i·|Γ|·(|Γ|+1) is far beyond
	// practical need; the example GFDs in the paper's Section 7 carry at
	// most one LHS literal on positives, with the 2-literal rules (GFD2,
	// GFD3) arising as negatives — which NHSpawn still produces at
	// MaxX=1, since it extends a verified positive's X by one literal.
	// Default 1.
	MaxX int
	// VarVarAllAttrs also spawns cross-attribute variable literals
	// x.A = y.B with A ≠ B. Off by default: same-attribute equalities
	// (x.name = y.name) dominate real dependencies and the cross products
	// inflate candidates quadratically.
	VarVarAllAttrs bool
	// WildcardNodes also spawns extensions whose new node is labelled '_',
	// enabling rules like the paper's GFD1 (wildcard child/parent).
	WildcardNodes bool
	// MaxExtensionsPerPattern caps VSpawn children per parent pattern,
	// taken in descending triple-frequency order. 0 = unlimited.
	MaxExtensionsPerPattern int
	// MaxPatternsPerLevel caps the number of verified patterns kept per
	// level. 0 = unlimited.
	MaxPatternsPerLevel int
	// MaxLevels caps the number of vertical levels (pattern edges)
	// explored. 0 = the paper's k² bound. k-node patterns with nearly k²
	// edges are almost never frequent in sparse graphs, so harness runs
	// set this to k+1 to bound the enumerated tail.
	MaxLevels int
	// MaxNegatives caps the number of negative GFDs mined. 0 = unlimited;
	// negative values disable negative mining entirely (used by baselines
	// like GCFDs whose rule language cannot express negatives).
	MaxNegatives int
	// MaxTableRows aborts extension of a pattern whose match table would
	// exceed this many rows (a memory guard; counts toward Stats.Aborted).
	// 0 = unlimited.
	MaxTableRows int
	// DisablePruning turns off the Lemma 4 pruning strategies — the
	// ParGFDn baseline of Section 7, which the paper reports failing on
	// all real-life graphs. Candidate counts are still recorded, and
	// CandidateBudget below bounds the blow-up so the process terminates.
	DisablePruning bool
	// CandidateBudget stops the miner after this many validated candidates
	// (0 = unlimited). Used to measure the ParGFDn blow-up without
	// exhausting memory.
	CandidateBudget int
	// Decoupled runs the two-phase ParArab baseline: mine all σ-frequent
	// patterns first (pattern mining à la Arabesque), then attach literals
	// to each in a second pass. The integrated miner interleaves the two.
	Decoupled bool
	// PathOnly restricts vertical spawning to forward path patterns
	// x0 → x1 → … → xl — the GCFD special case (CFDs with path patterns
	// for RDF, He et al. 2014) the paper compares against in Fig. 5(d).
	PathOnly bool
	// Trace, when non-nil, receives the run's structured span log:
	// per-level and per-superstep scopes with share/steal/hedge children
	// and failover/adoption events, written as JSONL. Tracing never
	// changes mining output — golden runs are byte-identical with it on.
	Trace *obs.Tracer
}

// Defaults returns the options used throughout the benchmarks: k-bounded
// patterns, support σ, Γ = top-5 attributes, 5 constants each, |X| ≤ 1 on
// positives, wildcard spawning on.
func Defaults(k, support int) Options {
	return Options{K: k, Support: support, ConstantsPerAttr: 5, MaxX: 1, WildcardNodes: true}
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.Support == 0 {
		o.Support = 1
	}
	if o.ConstantsPerAttr == 0 {
		o.ConstantsPerAttr = 5
	}
	if o.MaxX == 0 {
		o.MaxX = 1
	}
	return o
}

// Stats counts the work a discovery run performed; the infeasibility
// experiment (ParGFDn vs DisGFD) is read off these counters.
type Stats struct {
	PatternsSpawned   int // vertical candidates generated
	PatternsVerified  int // patterns whose tables were materialised
	PatternsFrequent  int // patterns with supp ≥ σ kept for extension
	PatternsPruned    int // infrequent patterns cut by Lemma 4(c)
	CandidatesSpawned int // GFD candidates generated by HSpawn
	CandidatesChecked int // candidates validated against the graph
	CandidatesPruned  int // candidates skipped by Lemma 4(a,b) / minimality
	NegativesSpawned  int // negative candidates from NVSpawn/NHSpawn
	MaxTableRows      int // largest match table materialised
	TotalTableRows    int // sum of materialised table rows
	Aborted           int // extensions abandoned on MaxTableRows
	PeakLiveRows      int // max simultaneously-materialised table rows (memory proxy)
	BudgetExhausted   bool
	// Cancelled reports that the run's context was cancelled: the backend
	// stopped answering between supersteps and the result holds only what
	// was mined before the cancellation.
	Cancelled bool
	Levels    int // vertical levels actually explored
}

// Mined is one discovered GFD with its measured support.
type Mined struct {
	GFD *core.GFD
	// Support is supp(φ, G): pivot-distinct satisfying matches for
	// positive GFDs; the base support for negative ones.
	Support int
	// PatternSupport is supp(Q, G).
	PatternSupport int
	// Level is the pattern's edge count.
	Level int
}

// Result is the output of a discovery run.
type Result struct {
	Positives []Mined
	Negatives []Mined
	Stats     Stats
}

// All returns every mined GFD, positives first.
func (r *Result) All() []*core.GFD {
	out := make([]*core.GFD, 0, len(r.Positives)+len(r.Negatives))
	for _, m := range r.Positives {
		out = append(out, m.GFD)
	}
	for _, m := range r.Negatives {
		out = append(out, m.GFD)
	}
	return out
}

// Profile is the mining catalog: graph statistics plus the active
// attributes Γ. Computed once per graph with NewProfile.
type Profile struct {
	Stats *graph.Stats
	Gamma []string
}

// NewProfile computes the catalog for v — any matching surface, including
// a snapshot-backed view. gamma == nil selects the 5 most frequent
// attributes, the paper's experimental setting.
func NewProfile(v graph.View, gamma []string) *Profile {
	st := graph.NewStats(v)
	if gamma == nil {
		gamma = st.TopAttributes(5)
	}
	return &Profile{Stats: st, Gamma: gamma}
}
