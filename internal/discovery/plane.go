package discovery

import (
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graph"
)

// This file holds the literal plane's shared state: the attribute columns
// every literal of a pool reads, and the scratch that counts distinct
// pivots. Both backends use them the same way: columns resolve and pools
// compile in driver-serial code, and workers only read what was resolved.

// Columns resolves the attributes of the active set Γ once each, the
// first time a Constants or Evaluate call names them, to columns that
// read any node in O(1). A dense column is used as it is. A sparse column
// (a long-tail attribute, stored as sorted (node, value) pairs whose
// lookup is a binary search) is projected once to a NodeID-indexed
// []ValueID, at 4 bytes per node. Resolution writes the cache, so Column
// and Compile must run driver-serially; the columns and compiled literals
// they return are read-only and safe to share between workers.
type Columns struct {
	v    graph.View
	cols map[string]graph.AttrColumn
}

// NewColumns returns an empty column cache over v. It resolves nothing.
func NewColumns(v graph.View) *Columns {
	return &Columns{v: v, cols: make(map[string]graph.AttrColumn)}
}

// Column returns the column of attr over v's node store: dense when any
// node carries attr, the zero column otherwise.
func (c *Columns) Column(attr string) graph.AttrColumn {
	if col, ok := c.cols[attr]; ok {
		return col
	}
	var col graph.AttrColumn
	if aid, ok := c.v.LookupAttr(attr); ok {
		col = c.v.AttrColumn(aid)
		if nodes, vals := col.Sparse(); len(nodes) > 0 {
			dense := make([]graph.ValueID, c.v.NumNodes())
			for i := range dense {
				dense[i] = graph.NoValue
			}
			for i, v := range nodes {
				dense[v] = vals[i]
			}
			col = graph.DenseColumn(dense)
		}
	}
	c.cols[attr] = col
	return col
}

// Compile compiles every literal of pool against the resolved columns,
// into dst's storage when it is large enough.
func (c *Columns) Compile(dst []eval.CompiledLiteral, pool []core.Literal) []eval.CompiledLiteral {
	dst = dst[:0]
	for _, l := range pool {
		dst = append(dst, eval.CompileLiteralCols(c.v, l, c.Column))
	}
	return dst
}

// PivotCounter counts distinct pivots without a map: node v has been
// counted since the last Reset iff stamp[v] == epoch. Reset bumps the
// epoch, so it costs O(1); the stamps are cleared only when the epoch
// wraps, once every 2^32 - 1 resets.
type PivotCounter struct {
	stamp []uint32
	epoch uint32
	n     int
}

// NewPivotCounter returns an empty counter over a node store of numNodes
// nodes.
func NewPivotCounter(numNodes int) *PivotCounter {
	return &PivotCounter{stamp: make([]uint32, numNodes), epoch: 1}
}

// Reset empties the counter.
func (c *PivotCounter) Reset() {
	c.n = 0
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		c.epoch = 1
	}
}

// Add counts v and reports whether it was new since the last Reset.
func (c *PivotCounter) Add(v graph.NodeID) bool {
	if c.stamp[v] == c.epoch {
		return false
	}
	c.stamp[v] = c.epoch
	c.n++
	return true
}

// Len returns the number of distinct pivots added since the last Reset.
func (c *PivotCounter) Len() int { return c.n }
