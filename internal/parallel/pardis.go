package parallel

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/graph"
)

// MineResult bundles a parallel discovery run's output with the cluster's
// simulated cost.
type MineResult struct {
	*discovery.Result
	Cluster cluster.Stats
	// FragmentEdges is the per-worker edge count of the vertex cut the run
	// matched against (one fragment-local SubCSR index per worker).
	FragmentEdges []int
}

// Mine runs algorithm ParDis (Section 6.2): the generation-tree master
// drives vertical and horizontal spawning while pattern verification and
// GFD validation execute on the fragmented graph across eng's workers.
// It is parallel scalable relative to discovery.Mine: simulated response
// time decreases as eng.Workers() grows. v may be a heap graph or an
// opened snapshot.
//
// ctx bounds the run: a cancelled or expired context stops the workers
// at the next superstep boundary — the result carries whatever was
// mined so far with Stats.Cancelled set.
func Mine(ctx context.Context, v graph.View, opts discovery.Options, eng *cluster.Engine, popts Options) *MineResult {
	return mine(ctx, v, nil, opts, eng, popts)
}

// MineFragments is Mine over pre-built fragments (one per worker of eng) —
// in particular fragments reattached from a spill directory, where every
// worker's index is a zero-copy MappedGraph instead of a heap SubCSR.
func MineFragments(ctx context.Context, v graph.View, frags []Fragment, opts discovery.Options, eng *cluster.Engine, popts Options) *MineResult {
	return mine(ctx, v, frags, opts, eng, popts)
}

func mine(ctx context.Context, v graph.View, frags []Fragment, opts discovery.Options, eng *cluster.Engine, popts Options) *MineResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if popts.MaxTableRows == 0 {
		popts.MaxTableRows = opts.MaxTableRows
	}
	// One statistics scan feeds both the mining profile and the backend's
	// triple counts — the graph scan dominates startup on large (snapshot)
	// inputs, so it must not run twice.
	prof := discovery.NewProfile(v, opts.ActiveAttrs)
	if frags == nil {
		frags = VertexCut(v, eng.Workers())
	}
	var stats discovery.Stats
	backend := newBackend(v, eng, frags, popts, &stats, prof.Stats)
	backend.ctx = ctx
	res := discovery.MineWithBackend(backend, prof, opts)
	res.Stats.MaxTableRows = stats.MaxTableRows
	res.Stats.TotalTableRows = stats.TotalTableRows
	res.Stats.Aborted += stats.Aborted
	res.Stats.Cancelled = stats.Cancelled
	return &MineResult{Result: res, Cluster: eng.Stats(), FragmentEdges: backend.FragmentEdges()}
}

// DisGFDResult is the output of the full parallel pipeline DisGFD =
// ParDis + ParCover.
type DisGFDResult struct {
	Mine  *MineResult
	Cover *CoverResult
	// Sigma is the cover: the final set of discovered GFDs.
	Sigma []*core.GFD
}

// DisGFD runs the complete parallel discovery pipeline of Theorem 5:
// ParDis to mine the k-bounded minimum σ-frequent GFDs, then ParCover to
// reduce them to a cover. Mining and cover computation use separate
// engines so their costs are reported independently (as the paper does in
// Exp-1 vs Exp-4).
func DisGFD(ctx context.Context, v graph.View, opts discovery.Options, mineEng, coverEng *cluster.Engine, popts Options) *DisGFDResult {
	mr := Mine(ctx, v, opts, mineEng, popts)
	cr := Cover(mr.All(), coverEng)
	return &DisGFDResult{Mine: mr, Cover: cr, Sigma: cr.Cover}
}
