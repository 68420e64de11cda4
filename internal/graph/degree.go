package graph

import "math/bits"

// Per-label degree statistics: the planner-v2 cost layer. The CSR already
// holds every (node, label) run width; this file folds them into compact
// per-label summaries — carrier counts, maxima, sums of squares and log2
// histograms — cheap enough to compute in one run-table scan, small enough
// to persist in a snapshot section, and rich enough to estimate anchored
// fan-out on skewed graphs (where the global mean EdgeLabelCount/NumNodes
// badly underestimates what a hub-anchored scan produces).

// DegreeBuckets is the number of log2 histogram buckets of a LabelDegree:
// bucket b counts carriers with degree in [2^b, 2^(b+1)), the last bucket
// absorbing everything above.
const DegreeBuckets = 16

// LabelDegree summarises the degree distribution of one (direction, label)
// pair: how many nodes carry at least one such edge, the largest and total
// counts, the sum of squared degrees (the size-biased moment) and a log2
// histogram for quantiles. The zero value describes a label with no edges.
type LabelDegree struct {
	// Carriers is the number of nodes with degree ≥ 1 under this label.
	Carriers uint32
	// Max is the largest per-node degree.
	Max uint32
	// Edges is the total degree Σ deg (== the view's EdgeLabelCount for
	// this label, per direction).
	Edges uint64
	// SumSq is Σ deg² over carriers — Edges × the size-biased mean degree,
	// the quantity hub concentration shows up in.
	SumSq uint64
	// Hist[b] counts carriers with floor(log2(deg)) == b (b capped at
	// DegreeBuckets-1).
	Hist [DegreeBuckets]uint32
}

// degreeBucket maps a degree ≥ 1 to its histogram bucket.
func degreeBucket(deg int) int {
	b := bits.Len64(uint64(deg)) - 1
	if b >= DegreeBuckets {
		b = DegreeBuckets - 1
	}
	return b
}

// add folds one carrier's degree into the summary.
func (d *LabelDegree) add(deg int) {
	if deg <= 0 {
		return
	}
	d.Carriers++
	if uint32(deg) > d.Max {
		d.Max = uint32(deg)
	}
	d.Edges += uint64(deg)
	d.SumSq += uint64(deg) * uint64(deg)
	d.Hist[degreeBucket(deg)]++
}

// Mean returns the mean degree over carriers (0 when there are none).
func (d LabelDegree) Mean() float64 {
	if d.Carriers == 0 {
		return 0
	}
	return float64(d.Edges) / float64(d.Carriers)
}

// SizeBiasedMean returns E[deg(X)] where X is the endpoint of a uniformly
// random edge of this label — the expected fan-out seen by a scan anchored
// at a node that was itself reached by an edge, which is what hub
// concentration inflates: SumSq/Edges ≥ Mean, with equality only when
// every carrier has the same degree.
func (d LabelDegree) SizeBiasedMean() float64 {
	if d.Edges == 0 {
		return 0
	}
	return float64(d.SumSq) / float64(d.Edges)
}

// Skew returns SizeBiasedMean/Mean ≥ 1: the multiplier hub concentration
// puts on an edge-anchored scan relative to a uniformly-anchored one
// (1 = perfectly regular degrees).
func (d LabelDegree) Skew() float64 {
	m := d.Mean()
	if m == 0 {
		return 1
	}
	return d.SizeBiasedMean() / m
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of the
// carrier degree distribution, resolved to histogram-bucket granularity:
// the upper edge of the first bucket whose cumulative carrier count
// reaches q×Carriers. Quantile(1) bounds Max from above.
func (d LabelDegree) Quantile(q float64) int {
	if d.Carriers == 0 {
		return 0
	}
	want := q * float64(d.Carriers)
	cum := 0.0
	for b := 0; b < DegreeBuckets; b++ {
		cum += float64(d.Hist[b])
		if cum >= want {
			if b == DegreeBuckets-1 {
				return int(d.Max)
			}
			return (1 << (b + 1)) - 1
		}
	}
	return int(d.Max)
}

// DegreeStats holds the per-label degree summaries of one view, per
// direction, indexed by LabelID, plus the all-labels totals (per-node
// total out/in degree) the wildcard estimator uses. Immutable once built;
// safe for concurrent readers.
type DegreeStats struct {
	Out, In       []LabelDegree
	OutAll, InAll LabelDegree
}

// NewDegreeStats scans v's run tables and builds its degree statistics:
// O(nodes + runs), no per-edge work — run widths come straight off the
// CSR offsets. It runs against any View (full graph, fragment SubCSR,
// snapshot MappedGraph, remote fragment).
func NewDegreeStats(v View) *DegreeStats {
	l := v.NumLabels()
	ds := &DegreeStats{Out: make([]LabelDegree, l), In: make([]LabelDegree, l)}
	n := v.NumNodes()
	for node := 0; node < n; node++ {
		id := NodeID(node)
		total := 0
		lo, hi := v.OutRuns(id)
		for r := lo; r < hi; r++ {
			w := len(v.OutRunNodes(r))
			ds.Out[v.OutRunLabel(r)].add(w)
			total += w
		}
		ds.OutAll.add(total)
		total = 0
		lo, hi = v.InRuns(id)
		for r := lo; r < hi; r++ {
			w := len(v.InRunNodes(r))
			ds.In[v.InRunLabel(r)].add(w)
			total += w
		}
		ds.InAll.add(total)
	}
	return ds
}

// DegreeStatser is the optional fast path of DegreeStatsFor: a view that
// already holds its degree statistics (a MappedGraph decodes them straight
// from the snapshot's degree section).
type DegreeStatser interface {
	DegreeStats() *DegreeStats
}

// degreeStatsKey is the PlanCache sentinel under which the generic
// fallback caches a computed DegreeStats. Graph.Finalize clears the
// PlanCache, so mutation invalidates the cached statistics for free.
type degreeStatsKey struct{}

// DegreeStatsFor returns v's degree statistics: from the view itself when
// it carries them (DegreeStatser), otherwise computed once by
// NewDegreeStats and cached in the view's PlanCache alongside compiled
// plans.
func DegreeStatsFor(v View) *DegreeStats {
	if s, ok := v.(DegreeStatser); ok {
		return s.DegreeStats()
	}
	return cached(v, degreeStatsKey{}, NewDegreeStats)
}

// cached returns the structure stored under key in v's PlanCache,
// building it from v on the first call.
func cached[T any](v View, key any, build func(View) *T) *T {
	c := v.PlanCache()
	if x, ok := c.Load(key); ok {
		return x.(*T)
	}
	x, _ := c.LoadOrStore(key, build(v))
	return x.(*T)
}
