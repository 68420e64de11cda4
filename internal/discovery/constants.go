package discovery

import (
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
// first use (and when the touched list or Top's selection grows).
type ValueCounter struct {
	counts  []int
	touched []graph.ValueID
	top     []graph.ValueID
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
// through name), and resets the counter. It selects rather than sorts:
// each value is compared with the last of the best max so far and, when
// it beats it, inserted in place. Interned values have unique strings, so
// the order is total and the result is a full sort's head — the constant
// ordering, and therefore mined GFD output, of the map-based era.
func (c *ValueCounter) Top(max int, name func(graph.ValueID) string) []string {
	top := c.top[:0]
	for _, val := range c.touched {
		if len(top) < max {
			top = append(top, val)
		} else if len(top) == 0 || !c.before(val, top[len(top)-1], name) {
			continue
		}
		i := len(top) - 1
		for ; i > 0 && c.before(val, top[i-1], name); i-- {
			top[i] = top[i-1]
		}
		top[i] = val
	}
	out := make([]string, len(top))
	for i, val := range top {
		out[i] = name(val)
	}
	c.top = top
	c.Reset()
	return out
}

// before reports whether a ranks ahead of b: a higher count, or an equal
// count and a smaller value string.
func (c *ValueCounter) before(a, b graph.ValueID, name func(graph.ValueID) string) bool {
	if ca, cb := c.counts[a], c.counts[b]; ca != cb {
		return ca > cb
	}
	return name(a) < name(b)
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
