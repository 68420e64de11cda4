package discovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// ObservedConstantCounts returns the frequency of each value of attr at
// variable v over the table's rows, as strings: the map-based reference
// form of ObservedValueCounts that the tests below check the backends'
// interned counting against.
func ObservedConstantCounts(g graph.View, t *match.Table, v int, attr string) map[string]int {
	counts := make(map[string]int)
	for _, node := range t.Col(v) {
		if val, ok := g.Attr(node, attr); ok {
			counts[val]++
		}
	}
	return counts
}

// TopConstants returns the up-to-max most frequent values in counts,
// ordered by descending count then value: the reference form of
// ValueCounter.Top.
func TopConstants(counts map[string]int, max int) []string {
	vals := make([]string, 0, len(counts))
	for val := range counts {
		vals = append(vals, val)
	}
	sort.Slice(vals, func(i, j int) bool {
		ci, cj := counts[vals[i]], counts[vals[j]]
		if ci != cj {
			return ci > cj
		}
		return vals[i] < vals[j]
	})
	if len(vals) > max {
		vals = vals[:max]
	}
	return vals
}

// TestConstantsDifferential checks the interned constant-collection path
// (ValueCounter over attribute columns) against the retained map-based
// reference (ObservedConstantCounts + TopConstants) on a realistic graph:
// identical ranked constant lists for every (variable, attribute) pair —
// including the string tie-break order that golden mining output depends
// on — and identical counts pair by pair.
func TestConstantsDifferential(t *testing.T) {
	g := dataset.DBpediaSim(600, 7)
	p := pattern.SingleEdge("T00", "r00", "T01")
	tab := match.EdgeMatches(g, p, nil)
	if tab.Len() == 0 {
		t.Fatal("empty workload table")
	}
	gamma := []string{"category", "origin", "status", "p00", "q03", "absent-attr"}

	b := NewSeqBackend(g, 0, nil)
	got := b.Constants(&seqHandle{table: tab}, p.N(), gamma, 5)

	vc := NewValueCounter(g.NumValues())
	for v := 0; v < p.N(); v++ {
		for ai, attr := range gamma {
			slot := v*len(gamma) + ai
			ref := ObservedConstantCounts(g, tab, v, attr)
			want := TopConstants(ref, 5)
			if !reflect.DeepEqual(got[slot], want) && !(len(got[slot]) == 0 && len(want) == 0) {
				t.Fatalf("Constants[%d] (x%d.%s) = %v; reference %v", slot, v, attr, got[slot], want)
			}
			// Pairwise counts, not just the ranked heads.
			ObservedValueCounts(g, tab, v, attr, vc)
			pairs := vc.Drain(nil)
			if len(pairs) != len(ref) {
				t.Fatalf("x%d.%s: %d interned counts vs %d reference counts", v, attr, len(pairs), len(ref))
			}
			for _, pc := range pairs {
				if ref[g.ValueName(pc.Val)] != pc.N {
					t.Fatalf("x%d.%s value %q: count %d vs reference %d",
						v, attr, g.ValueName(pc.Val), pc.N, ref[g.ValueName(pc.Val)])
				}
			}
		}
	}
}

// TestValueCounterReuse pins the scratch life cycle: Top and Drain reset
// the counter, Add grows it past the initial pool size, and accumulation
// across Adds merges counts per ValueID.
func TestValueCounterReuse(t *testing.T) {
	vc := NewValueCounter(2)
	vc.Add(1, 3)
	vc.Add(5, 2) // beyond initial size: must grow
	vc.Add(1, 1)
	pairs := vc.Drain(nil)
	if len(pairs) != 2 || pairs[0] != (ValueCount{Val: 1, N: 4}) || pairs[1] != (ValueCount{Val: 5, N: 2}) {
		t.Fatalf("Drain = %v", pairs)
	}
	if again := vc.Drain(nil); len(again) != 0 {
		t.Fatalf("Drain after Drain = %v, want empty", again)
	}

	names := []string{"z", "b", "c", "d", "e", "f"}
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 10; round++ {
		ref := make(map[string]int)
		for i := 0; i < 50; i++ {
			id := graph.ValueID(r.Intn(len(names)))
			vc.Add(id, 1)
			ref[names[id]]++
		}
		want := TopConstants(ref, 3)
		got := vc.Top(3, func(v graph.ValueID) string { return names[v] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Top = %v, reference %v", round, got, want)
		}
	}
}

// TestConstantsParallelMatchesSequential requires the ParDis constant
// merge (per-fragment ValueID counts unioned at the master) to reproduce
// the sequential backend's ranked constants exactly. The fragment parts
// here are an ownership split of the same table, so the merged counts must
// equal the whole-table counts.
func TestConstantsParallelMatchesSequential(t *testing.T) {
	g := dataset.DBpediaSim(400, 11)
	p := pattern.SingleEdge("T00", "r00", "T01")
	tab := match.EdgeMatches(g, p, nil)
	gamma := []string{"category", "status", "name"}

	b := NewSeqBackend(g, 0, nil)
	whole := b.Constants(&seqHandle{table: tab}, p.N(), gamma, 5)

	// Split the table at arbitrary offsets and merge per-part counts the
	// way the parallel master does.
	parts := tab.Split(tab.Len()/3, 2*tab.Len()/3)
	vc := NewValueCounter(g.NumValues())
	merged := make([][]string, p.N()*len(gamma))
	for v := 0; v < p.N(); v++ {
		for ai, attr := range gamma {
			var shipped [][]ValueCount
			for _, part := range parts {
				ObservedValueCounts(g, part, v, attr, vc)
				shipped = append(shipped, vc.Drain(nil))
			}
			for _, pairs := range shipped {
				for _, pc := range pairs {
					vc.Add(pc.Val, pc.N)
				}
			}
			merged[v*len(gamma)+ai] = vc.Top(5, g.ValueName)
		}
	}
	for slot := range whole {
		if !reflect.DeepEqual(whole[slot], merged[slot]) && !(len(whole[slot]) == 0 && len(merged[slot]) == 0) {
			t.Fatalf("slot %d: sequential %v vs fragment-merged %v", slot, whole[slot], merged[slot])
		}
	}
}

// TestValueCounterTopSelection checks Top's selection against a full sort
// (TopConstants) on random counts drawn from a narrow range, so most
// values tie, with value strings ordered unlike their IDs, for every max
// from 0 to 8.
func TestValueCounterTopSelection(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	names := make([]string, 40)
	for i, j := range r.Perm(len(names)) {
		names[i] = fmt.Sprintf("v%02d", j)
	}
	name := func(v graph.ValueID) string { return names[v] }
	vc := NewValueCounter(len(names))
	for round := 0; round < 500; round++ {
		ref := make(map[string]int)
		for i, n := 0, r.Intn(len(names)+1); i < n; i++ {
			id := graph.ValueID(r.Intn(len(names)))
			c := 1 + r.Intn(3)
			vc.Add(id, c)
			ref[names[id]] += c
		}
		max := round % 9
		want := TopConstants(ref, max)
		if got := vc.Top(max, name); !slices.Equal(got, want) {
			t.Fatalf("round %d: Top(%d) = %v, full sort %v (counts %v)", round, max, got, want, ref)
		}
	}
}
