// Package cli holds helpers shared by the command-line tools: dataset
// loading/generation and a compact discovery pipeline with reporting.
package cli

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/store"
)

// LoadOrGenerate reads a graph from path when non-empty — a binary
// snapshot (opened zero-copy) or a TSV file, auto-detected by magic
// bytes — otherwise it generates the named built-in dataset at the given
// scale. A snapshot's mapping stays live for the process (CLI lifetime);
// use store.LoadGraph directly when explicit release matters.
func LoadOrGenerate(path, ds string, scale int, seed int64) (graph.View, error) {
	if path != "" {
		v, _, err := store.LoadGraph(path)
		return v, err
	}
	switch ds {
	case "yago2":
		return dataset.YAGO2Sim(scale, seed), nil
	case "dbpedia":
		return dataset.DBpediaSim(scale, seed), nil
	case "imdb":
		return dataset.IMDBSim(scale, seed), nil
	case "synthetic":
		return dataset.Synthetic(dataset.SyntheticConfig{Nodes: scale, Edges: 2 * scale, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want yago2|dbpedia|imdb|synthetic)", ds)
	}
}

// DiscoverOptions returns the CLI's default mining options.
func DiscoverOptions(k, sigma int) discovery.Options {
	return discovery.Options{
		K:                       k,
		Support:                 sigma,
		ConstantsPerAttr:        5,
		MaxX:                    1,
		WildcardNodes:           true,
		MaxExtensionsPerPattern: 20,
		MaxPatternsPerLevel:     100,
		MaxLevels:               k + 1,
		MaxNegatives:            50,
		MaxTableRows:            300000,
	}
}

// Report summarises a discovery run for CLI output.
type Report struct {
	Positives, Negatives int
	Patterns, Candidates int
	Cover                []discovery.Mined
	All                  []discovery.Mined
	SimulatedTime        time.Duration
	// FragmentEdges is the per-worker edge count of the vertex cut the
	// parallel run matched against (one fragment-local SubCSR index each);
	// nil for sequential runs.
	FragmentEdges []int
	// MeasuredBytes is the wire traffic observed on remote fragment
	// connections (zero unless the run used the distributed runtime).
	MeasuredBytes int64
	// FailedOver and Rejoined count served slots that ended the run
	// mining from their spill file, and adoptions that brought a slot
	// back to a recovered (or replacement) member (served runs only).
	FailedOver, Rejoined int
	// HedgesFired and HedgesWon count hedged replica reads: join shares
	// recomputed locally when the wire ran past the hedge delay, and how
	// many of those the local recompute won (served runs only).
	HedgesFired, HedgesWon int64
	// Members is the cluster-map size at the end of a served run and
	// Epoch its final epoch (zero for other runs).
	Members int
	Epoch   uint64
	// Adoptions counts routings of a worker slot to an announced member
	// at superstep boundaries: each slot's first member, rejoins and
	// replacements.
	Adoptions int
	// StealChunks counts the parent-row chunks processed by the stealing
	// extend paths (concurrent SeqDis and ParDis) during this run, read
	// as a delta of the process-wide registry counters.
	StealChunks int64
}

// stealChunkTotal reads the process-wide steal-chunk counters (both
// backends); runs report the delta across their own execution.
func stealChunkTotal() int64 {
	return obs.Default.Counter("gfd_steal_chunks_total", "backend", "seqdis").Value() +
		obs.Default.Counter("gfd_steal_chunks_total", "backend", "pardis").Value()
}

// Discover runs the pipeline (sequential when workers == 0, simulated
// cluster otherwise) and computes the cover. v may be a heap graph or a
// snapshot view — the miner only reads the View surface.
func Discover(v graph.View, opts discovery.Options, workers int) *Report {
	rep := &Report{}
	steal0 := stealChunkTotal()
	var res *discovery.Result
	if workers > 0 {
		eng := cluster.New(cluster.Config{Workers: workers, Obs: obs.Default, Trace: opts.Trace})
		pr := parallel.Mine(context.Background(), v, opts, eng, parallel.Options{LoadBalance: true})
		res = pr.Result
		rep.SimulatedTime = pr.Cluster.Total()
		rep.FragmentEdges = pr.FragmentEdges
		rep.HedgesFired, rep.HedgesWon = pr.Cluster.HedgesFired, pr.Cluster.HedgesWon
	} else {
		res = discovery.MineView(v, opts)
	}
	rep.StealChunks = stealChunkTotal() - steal0
	rep.fill(res)
	return rep
}

func (rep *Report) fill(res *discovery.Result) {
	rep.Positives = len(res.Positives)
	rep.Negatives = len(res.Negatives)
	rep.Patterns = res.Stats.PatternsVerified
	rep.Candidates = res.Stats.CandidatesChecked
	rep.All = append(append([]discovery.Mined(nil), res.Positives...), res.Negatives...)
	rep.Cover = discovery.MinedCover(res)
}
