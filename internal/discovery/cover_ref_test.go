package discovery

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// coverRef is the ungrouped SeqCover loop that the grouped Cover
// replaced, kept as the reference its output must equal GFD for GFD and
// in order: every φ of Σ, most specific first, is tested against all of
// Σ\{φ} (the GFDs kept so far and those not yet inspected).
func coverRef(sigma []*core.GFD) []*core.GFD {
	work := append([]*core.GFD(nil), sigma...)
	SortMostSpecificFirst(work)
	var im core.Implier
	kept := make([]*core.GFD, 0, len(work))
	rest := make([]*core.GFD, 0, len(work))
	for i, phi := range work {
		rest = append(append(rest[:0], kept...), work[i+1:]...)
		if !im.Implies(rest, phi) {
			kept = append(kept, phi)
		}
	}
	return kept
}

// TestCoverMatchesReference: the grouped cover returns the reference's
// GFDs in the reference's order on mined and on generated Σ.
func TestCoverMatchesReference(t *testing.T) {
	f, err := os.Open("../testutil/testdata/golden_graph.tsv")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := graph.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The golden run's options, and the gfddiscover defaults at k = 3,
	// σ = 25.
	goldenOpts := Options{K: 3, Support: 2, MaxX: 2, ConstantsPerAttr: 3, WildcardNodes: true, MaxNegatives: 200}
	cliOpts := Options{
		K: 3, Support: 25, ConstantsPerAttr: 5, MaxX: 1, WildcardNodes: true,
		MaxExtensionsPerPattern: 20, MaxPatternsPerLevel: 100, MaxLevels: 4,
		MaxNegatives: 50, MaxTableRows: 300000,
	}
	type input struct {
		name  string
		sigma []*core.GFD
	}
	inputs := []input{
		{"golden", MineView(golden, goldenOpts).All()},
		{"dbpedia-100", Mine(dataset.DBpediaSim(100, 3), cliOpts).All()},
		{"yago2-500", Mine(dataset.YAGO2Sim(500, 1), cliOpts).All()},
	}
	g := dataset.YAGO2Sim(100, 5)
	for _, k := range []int{3, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			sigma := dataset.GenGFDs(g, dataset.GFDGenConfig{Count: 300, K: k, Seed: seed})
			inputs = append(inputs, input{fmt.Sprintf("generated-k%d-seed%d", k, seed), sigma})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := coverRef(in.sigma)
			got := Cover(in.sigma)
			if len(got) != len(want) || len(want) == len(in.sigma) {
				t.Fatalf("|Σ| = %d: cover has %d GFDs, reference %d", len(in.sigma), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("|Σ| = %d: GFD %d of the cover is %s, reference %s", len(in.sigma), i, got[i], want[i])
				}
			}
			t.Logf("|Σ| = %d, |cover| = %d, %d groups", len(in.sigma), len(got), len(CoverGroups(in.sigma)))
		})
	}
}
