// Package parallel implements the parallel-scalable GFD discovery of
// Section 6: algorithm ParDis (distributed incremental joins over a
// vertex-cut–fragmented graph, with workload balancing) and algorithm
// ParCover (parallel cover computation: the master builds discovery's
// Lemma 6 groups and deals them to the workers with factor-2 load
// balancing, and the workers reduce them), plus the paper's ungrouped
// ParCovern baseline (CoverUngrouped). Both algorithms run on the
// simulated cluster of package cluster and are parallel scalable relative
// to their sequential counterparts: the benchmarks measure simulated
// response time falling as workers increase.
package parallel

import (
	"repro/internal/graph"
)

// Fragment is one worker's share of the graph under a vertex cut: a real
// fragment-local CSR index over its edge set — not an ownership filter —
// plus a contiguous range of owned node IDs used to partition single-node
// match tables. The view keeps global NodeIDs and the shared symbol
// table, so rows matched against one fragment compose with rows from any
// other. It is normally a heap *graph.SubCSR (VertexCut) but can equally
// be a snapshot-backed *store.MappedGraph reattached from disk (Attach):
// the worker-side code only reads the View surface.
type Fragment struct {
	Worker int
	// Sub is the fragment's own CSR view: the edges assigned to this
	// worker, indexed with per-node per-label runs exactly like the full
	// graph's CSR.
	Sub graph.View
	// NodeLo, NodeHi delimit the owned node range [NodeLo, NodeHi). The
	// range is aligned with the edge cut: the fragment owns exactly the
	// source nodes whose out-edge blocks it holds.
	NodeLo, NodeHi graph.NodeID
}

// VertexCut partitions v's edges into n fragments by an edge-balanced cut
// at source-node boundaries: walking nodes in ID order, each node's whole
// out-edge block goes to the current fragment, and a fragment closes once
// it holds its share of ⌈|E|·w/n⌉ edges. Keeping every node's out-run
// contiguous preserves locality — all edges of a hub node land in one
// fragment — which is what makes skewed graphs skew the per-worker match
// tables and gives the paper's load balancing something to fix. Each
// fragment's edge set is compiled into its own SubCSR index; node
// ownership follows the same boundaries (a fragment may own an empty node
// range when a hub swallowed several quotas). It cuts any View — a heap
// graph or an opened snapshot.
func VertexCut(v graph.View, n int) []Fragment {
	if n < 1 {
		n = 1
	}
	if g, ok := v.(*graph.Graph); ok {
		g.Finalize()
	}
	nodes, m := v.NumNodes(), v.NumEdges()
	outDegree := func(u graph.NodeID) int {
		lo, hi := v.OutRuns(u)
		d := 0
		for r := lo; r < hi; r++ {
			d += len(v.OutRunNodes(r))
		}
		return d
	}

	// bounds[w]..bounds[w+1] is fragment w's source-node range.
	bounds := make([]int, n+1)
	bounds[n] = nodes
	if m == 0 {
		// Degenerate: no edges to balance; split the node space evenly so
		// seed tables still spread.
		per := (nodes + n - 1) / n
		for w := 1; w < n; w++ {
			bounds[w] = min(w*per, nodes)
		}
	} else {
		cum, w := 0, 1
		for u := 0; u < nodes && w < n; u++ {
			for w < n && cum >= (m*w+n-1)/n {
				bounds[w] = u
				w++
			}
			cum += outDegree(graph.NodeID(u))
		}
		for ; w < n; w++ {
			bounds[w] = nodes
		}
	}

	frags := make([]Fragment, n)
	for w := 0; w < n; w++ {
		var edges []graph.IEdge
		for u := bounds[w]; u < bounds[w+1]; u++ {
			lo, hi := v.OutRuns(graph.NodeID(u))
			for r := lo; r < hi; r++ {
				l := v.OutRunLabel(r)
				for _, d := range v.OutRunNodes(r) {
					edges = append(edges, graph.IEdge{Src: graph.NodeID(u), Dst: d, Label: l})
				}
			}
		}
		frags[w] = Fragment{
			Worker: w,
			Sub:    graph.NewSubCSR(v, edges),
			NodeLo: graph.NodeID(bounds[w]),
			NodeHi: graph.NodeID(bounds[w+1]),
		}
	}
	return frags
}

// EdgeCount returns the number of edges in the fragment.
func (f *Fragment) EdgeCount() int { return f.Sub.NumEdges() }

// OwnsNode reports whether the fragment owns node v.
func (f *Fragment) OwnsNode(v graph.NodeID) bool { return v >= f.NodeLo && v < f.NodeHi }
