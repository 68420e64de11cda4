package discovery

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/match"
)

// This file implements the constant-collection half of HSpawn's literal
// spawning on the interned attribute plane: observed values are counted
// per ValueID into a dense reusable scratch (one int per interned value,
// zeroed via a touched list), replacing the map[string]int per (variable,
// attribute) of the map-backed era. Workers ship (ValueID, count) pairs;
// ranking resolves strings only for the final ordering, which keeps the
// output byte-identical to the string era (descending count, then
// ascending value string).

// ValueCount pairs an interned attribute value with an observed frequency.
// It is the unit ParDis workers ship to the master for constant merging.
type ValueCount struct {
	Val graph.ValueID
	N   int
}

// ValueCounter accumulates per-ValueID frequencies in a dense scratch
// sized to the graph's value pool. It is reused across (variable,
// attribute) pairs: Top and Drain reset it, so a counter allocates only on
// first use (and when the touched list grows).
type ValueCounter struct {
	counts  []int
	touched []graph.ValueID
}

// NewValueCounter returns a counter for a value pool of numValues IDs.
func NewValueCounter(numValues int) *ValueCounter {
	return &ValueCounter{counts: make([]int, numValues)}
}

// Add accumulates n observations of val.
func (c *ValueCounter) Add(val graph.ValueID, n int) {
	if int(val) >= len(c.counts) {
		grown := make([]int, int(val)+1)
		copy(grown, c.counts)
		c.counts = grown
	}
	if c.counts[val] == 0 {
		c.touched = append(c.touched, val)
	}
	c.counts[val] += n
}

// CountColumn counts the values of one attribute column at the given
// nodes — the per-(variable, attribute) unit of Backend.Constants, a
// single scan of the match table's node column against the attribute's
// compiled column.
func (c *ValueCounter) CountColumn(col graph.AttrColumn, nodes []graph.NodeID) {
	if d := col.Dense(); d != nil {
		for _, v := range nodes {
			if val := d[v]; val != graph.NoValue {
				c.Add(val, 1)
			}
		}
		return
	}
	for _, v := range nodes {
		if val := col.ValueAt(v); val != graph.NoValue {
			c.Add(val, 1)
		}
	}
}

// Reset zeroes the counter for reuse.
func (c *ValueCounter) Reset() {
	for _, val := range c.touched {
		c.counts[val] = 0
	}
	c.touched = c.touched[:0]
}

// Drain appends the accumulated (value, count) pairs to dst in
// first-observed order, resets the counter, and returns the extended
// slice.
func (c *ValueCounter) Drain(dst []ValueCount) []ValueCount {
	for _, val := range c.touched {
		dst = append(dst, ValueCount{Val: val, N: c.counts[val]})
		c.counts[val] = 0
	}
	c.touched = c.touched[:0]
	return dst
}

// Top returns the up-to-max most frequent accumulated values as strings,
// ordered by descending count then ascending value string (resolved
// through name), and resets the counter. The string resolution in the
// comparator is what keeps constant ordering — and therefore mined GFD
// output — identical to the map-based era.
func (c *ValueCounter) Top(max int, name func(graph.ValueID) string) []string {
	sort.Slice(c.touched, func(i, j int) bool {
		ci, cj := c.counts[c.touched[i]], c.counts[c.touched[j]]
		if ci != cj {
			return ci > cj
		}
		return name(c.touched[i]) < name(c.touched[j])
	})
	n := len(c.touched)
	if n > max {
		n = max
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = name(c.touched[i])
	}
	c.Reset()
	return out
}

// ObservedValueCounts counts, via the reusable counter, the interned
// values of attr at variable v over the table's rows: no map, no strings,
// one column scan.
func ObservedValueCounts(g graph.View, t *match.Table, v int, attr string, c *ValueCounter) {
	aid, ok := g.LookupAttr(attr)
	if !ok {
		return
	}
	c.CountColumn(g.AttrColumn(aid), t.Col(v))
}
