package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/store"
)

type engine int

const (
	engineSeq    engine = iota // SeqDis over the opened snapshot
	enginePar                  // ParDis, Concurrent mode, over spilled and re-attached fragments
	engineRemote               // as enginePar, with worker 1 served over loopback TCP
)

// workload is one whole-run job shape; why each exists is recorded in
// BENCHMARK.json. The graph's content is fixed per workload by the
// generator's instance seed; the benchmark's --seed renumbers its nodes
// and reorders its edges and symbols. Content drawn from --seed would
// move the mined set, and with it the work, by up to 3x between seeds
// (DBpediaSim at this scale), which no bound could absorb; renumbering
// changes the input's layout, not the work it asks for.
type workload struct {
	name     string
	dataset  string
	scale    int
	instance int64
	engine   engine
}

var workloads = []workload{
	// The miner's own literal-tree driver carries mining and the cover is
	// a fifth of the run; the extend kernel does almost nothing.
	{name: "dbpedia-k3-seq", dataset: "dbpedia", scale: 100, instance: 3, engine: engineSeq},
	// The literal plane and the driver carry mining; extend is about a
	// sixth of it. Store and cluster run too.
	{name: "yago2-k3-pardis", dataset: "yago2", scale: 1000, instance: 1, engine: enginePar},
	// The same backend with wire and RPC in the loop; extend, shares
	// included, grows to about a third of mining.
	{name: "yago2-k3-remote", dataset: "yago2", scale: 500, instance: 1, engine: engineRemote},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generate builds the workload's input graph for the seed.
func (w workload) generate(seed int64) (*graph.Graph, error) {
	var g *graph.Graph
	switch w.dataset {
	case "dbpedia":
		g = dataset.DBpediaSim(w.scale, w.instance)
	case "yago2":
		g = dataset.YAGO2Sim(w.scale, w.instance)
	default:
		return nil, fmt.Errorf("workload %s: unknown dataset %q", w.name, w.dataset)
	}
	return renumber(g, seed), nil
}

// renumber returns a copy of g with node IDs permuted and edges inserted
// in shuffled order, both drawn from seed. Attributes are set in sorted
// key order, so the same seed interns every symbol identically and gives
// byte-identical snapshots.
func renumber(g *graph.Graph, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	to := r.Perm(n) // to[old] = new
	from := make([]graph.NodeID, n)
	for old, nw := range to {
		from[nw] = graph.NodeID(old)
	}
	out := graph.New(n, g.NumEdges())
	for _, old := range from {
		v := out.AddNode(g.Label(old), nil)
		attrs := g.Attrs(old)
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			out.SetAttr(v, k, attrs[k])
		}
	}
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		out.AddEdge(graph.NodeID(to[e.Src]), graph.NodeID(to[e.Dst]), e.Label)
	}
	out.Finalize()
	return out
}

// referenceDigest mines the input with the other engine and hashes the
// result: ParDis runs are checked against SeqDis on the same graph, and
// the SeqDis run against an in-memory ParDis run.
func referenceDigest(w workload, input string) (string, error) {
	g, err := store.Open(input)
	if err != nil {
		return "", err
	}
	defer g.Close()
	opts := mineOptions()
	var res *discovery.Result
	if w.engine == engineSeq {
		eng := cluster.New(cluster.Config{Workers: workers, Mode: cluster.Concurrent})
		res = parallel.Mine(context.Background(), g, opts, eng, parallel.Options{LoadBalance: true}).Result
	} else {
		res = discovery.MineView(g, opts)
	}
	return digest(res, discovery.MinedCover(res)), nil
}

//go:embed reference.json
var referenceJSON []byte

// references is reference.json: per workload, the reference digest of
// its output and the recorded split of one run, plus notes for readers.
type references struct {
	Notes     []string                     `json:"notes"`
	Defects   []string                     `json:"known_defects"`
	Workloads map[string]workloadReference `json:"workloads"`
}

// workloadReference is one workload's recording. Renumbering the input
// does not change what is mined, so one digest holds for every seed;
// Verified lists the seeds on which both engines reproduced it.
type workloadReference struct {
	Scale    int                           `json:"scale"`
	Instance int64                         `json:"instance"`
	Digest   string                        `json:"digest"`
	Verified []int64                       `json:"verified_seeds"`
	Split    map[string]map[string]float64 `json:"split,omitempty"`
}

func readReferences(raw []byte) (references, error) {
	var refs references
	if err := json.Unmarshal(raw, &refs); err != nil {
		return refs, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// recordedDigest returns the digest recorded for w, if any. A recording
// is only valid for the graph it was made on.
func recordedDigest(w workload) (string, bool, error) {
	refs, err := readReferences(referenceJSON)
	if err != nil {
		return "", false, err
	}
	r, ok := refs.Workloads[w.name]
	if !ok || r.Scale != w.scale || r.Instance != w.instance || r.Digest == "" {
		return "", false, nil
	}
	return r.Digest, true, nil
}
