package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/amie"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/gcfd"
	"repro/internal/parallel"
	"repro/internal/pattern"
)

// Run executes the experiment with the given ID. Known IDs: fig5a..fig5l,
// fig6, fig7, fig8, infeas.
func Run(id string, c Config) (*Table, error) {
	c = c.withDefaults()
	switch id {
	case "fig5a":
		return Fig5Workers(c, "dbpedia", "fig5a"), nil
	case "fig5b":
		return Fig5Workers(c, "yago2", "fig5b"), nil
	case "fig5c":
		return Fig5Workers(c, "imdb", "fig5c"), nil
	case "fig5d":
		return Fig5Compare(c), nil
	case "fig5e":
		return Fig5GraphSize(c), nil
	case "fig5f":
		return Fig5K(c), nil
	case "fig5g":
		return Fig5Sigma(c), nil
	case "fig5h":
		return Fig5Gamma(c), nil
	case "fig5i":
		return Fig5Cover(c, "dbpedia", "fig5i"), nil
	case "fig5j":
		return Fig5Cover(c, "yago2", "fig5j"), nil
	case "fig5k":
		return Fig5Cover(c, "imdb", "fig5k"), nil
	case "fig5l":
		return Fig5SigmaSize(c), nil
	case "fig6":
		return Fig6(c), nil
	case "fig7":
		return Fig7(c), nil
	case "fig8":
		return Fig8(c), nil
	case "infeas":
		return Infeasible(c), nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q", id)
	}
}

// IDs lists all experiment IDs in report order.
func IDs() []string {
	return []string{
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig5g", "fig5h",
		"fig5i", "fig5j", "fig5k", "fig5l", "fig6", "fig7", "fig8", "infeas",
	}
}

// Fig5Workers reproduces Figures 5(a)/(b)/(c): DisGFD vs ParGFDnb (no load
// balancing), simulated parallel response time as workers vary.
func Fig5Workers(c Config, key, id string) *Table {
	spec := specs[key]
	g, sigma := c.graphFor(spec)
	opts := mineOpts(spec.k, sigma)
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Varying n (%s): DisGFD vs ParGFDnb, k=%d σ=%d, %s", spec.name, spec.k, sigma, g),
		Header: []string{"n", "DisGFD", "ParGFDnb", "DisGFD-skew", "ParGFDnb-skew"},
	}
	var rules int
	for _, n := range c.Workers {
		c.logf("%s n=%d", id, n)
		b := parallel.Mine(context.Background(), g, opts, newEngine(n), parallel.Options{LoadBalance: true})
		nb := parallel.Mine(context.Background(), g, opts, newEngine(n), parallel.Options{LoadBalance: false})
		rules = len(b.Positives) + len(b.Negatives)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			secs(b.Cluster.Total()),
			secs(nb.Cluster.Total()),
			fmt.Sprintf("%.2f", b.Cluster.Skew()),
			fmt.Sprintf("%.2f", nb.Cluster.Skew()),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d GFDs mined per run (positives+negatives)", rules))
	return t
}

// Fig5Compare reproduces Figure 5(d): DisGFD vs DisGCFD vs ParAMIE on
// YAGO2 with k=3 (the default AMIE variable budget).
func Fig5Compare(c Config) *Table {
	spec := specs["yago2"]
	g, sigma := c.graphFor(spec)
	opts := mineOpts(3, sigma)
	t := &Table{
		ID:     "fig5d",
		Title:  fmt.Sprintf("GCFD, GFD & AMIE (%s), k=3 σ=%d", spec.name, sigma),
		Header: []string{"n", "DisGFD", "DisGCFD", "ParAMIE"},
	}
	for _, n := range c.Workers {
		c.logf("fig5d n=%d", n)
		gfdRun := parallel.Mine(context.Background(), g, opts, newEngine(n), parallel.Options{LoadBalance: true})
		gcfdEng := newEngine(n)
		_, gcfdStats := gcfd.MineParallel(g, gcfd.Options{MaxPathLen: 2, Support: sigma}, gcfdEng)
		amieEng := newEngine(n)
		amie.MineParallel(g, amie.Options{MinSupport: sigma, MinPCAConfidence: 0.5}, amieEng)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			secs(gfdRun.Cluster.Total()),
			secs(gcfdStats.Total()),
			secs(amieEng.Stats().Total()),
		})
	}
	return t
}

// Fig5GraphSize reproduces Figure 5(e): synthetic graphs growing from
// (10M,20M) to (30M,60M) in the paper, scaled 1:1000 here, n = max
// workers, k=4.
func Fig5GraphSize(c Config) *Table {
	n := c.Workers[len(c.Workers)-1]
	t := &Table{
		ID:     "fig5e",
		Title:  fmt.Sprintf("Varying |G| (synthetic), n=%d, k=3", n),
		Header: []string{"|V|,|E|", "DisGFD", "ParGFDnb"},
	}
	for _, m := range []int{10, 15, 20, 25, 30} {
		nodes := int(float64(m*1000) * c.Scale)
		edges := 2 * nodes
		sigma := nodes / 100
		g := dataset.Synthetic(dataset.SyntheticConfig{Nodes: nodes, Edges: edges, Seed: c.Seed})
		opts := mineOpts(3, sigma)
		c.logf("fig5e |V|=%d", nodes)
		b := parallel.Mine(context.Background(), g, opts, newEngine(n), parallel.Options{LoadBalance: true})
		nb := parallel.Mine(context.Background(), g, opts, newEngine(n), parallel.Options{LoadBalance: false})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%dk,%dk)", nodes/1000, edges/1000),
			secs(b.Cluster.Total()),
			secs(nb.Cluster.Total()),
		})
	}
	return t
}

// Fig5K reproduces Figure 5(f): varying the pattern bound k on DBpedia,
// n=8, σ raised as in the paper.
func Fig5K(c Config) *Table {
	spec := specs["dbpedia"]
	g, sigma := c.graphFor(spec)
	sigma = sigma * 2 // the paper's fig 5(f) also raises σ for the k sweep
	t := &Table{
		ID:     "fig5f",
		Title:  fmt.Sprintf("Varying k (%s), n=8, σ=%d", spec.name, sigma),
		Header: []string{"k", "DisGFD", "ParGFDnb"},
	}
	// k stops at 4: the k≥5 tail exceeds the single-core harness budget
	// and the k trend (cost growing with k) is established by 2..4.
	for _, k := range []int{2, 3, 4} {
		c.logf("fig5f k=%d", k)
		opts := mineOpts(k, sigma)
		b := parallel.Mine(context.Background(), g, opts, newEngine(8), parallel.Options{LoadBalance: true})
		nb := parallel.Mine(context.Background(), g, opts, newEngine(8), parallel.Options{LoadBalance: false})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), secs(b.Cluster.Total()), secs(nb.Cluster.Total()),
		})
	}
	return t
}

// Fig5Sigma reproduces Figure 5(g): varying the support threshold σ on
// DBpedia, n=8, k=3 (harness scale).
func Fig5Sigma(c Config) *Table {
	spec := specs["dbpedia"]
	g, base := c.graphFor(spec)
	t := &Table{
		ID:     "fig5g",
		Title:  fmt.Sprintf("Varying σ (%s), n=8, k=3 (base σ=%d)", spec.name, base),
		Header: []string{"σ", "DisGFD", "ParGFDnb"},
	}
	for _, m := range []int{1, 2, 3, 4, 5} {
		sigma := base * m
		c.logf("fig5g σ=%d", sigma)
		opts := mineOpts(3, sigma)
		b := parallel.Mine(context.Background(), g, opts, newEngine(8), parallel.Options{LoadBalance: true})
		nb := parallel.Mine(context.Background(), g, opts, newEngine(8), parallel.Options{LoadBalance: false})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(sigma), secs(b.Cluster.Total()), secs(nb.Cluster.Total()),
		})
	}
	return t
}

// Fig5Gamma reproduces Figure 5(h): varying the active-attribute set |Γ|
// on DBpedia, n=8, k=3 (harness scale).
func Fig5Gamma(c Config) *Table {
	spec := specs["dbpedia"]
	g, sigma := c.graphFor(spec)
	prof := discovery.NewProfile(g, nil)
	t := &Table{
		ID:     "fig5h",
		Title:  fmt.Sprintf("Varying |Γ| (%s), n=8, k=3, σ=%d", spec.name, sigma),
		Header: []string{"|Γ|", "DisGFD", "ParGFDnb"},
	}
	// |Γ| stops at 10: the literal pool grows ~linearly in |Γ| but the
	// candidate space quadratically; 3..10 establishes the paper's trend
	// within the single-core budget.
	for _, ng := range []int{3, 5, 10} {
		c.logf("fig5h |Γ|=%d", ng)
		opts := mineOpts(3, sigma)
		opts.ActiveAttrs = prof.Stats.TopAttributes(ng)
		b := parallel.Mine(context.Background(), g, opts, newEngine(8), parallel.Options{LoadBalance: true})
		nb := parallel.Mine(context.Background(), g, opts, newEngine(8), parallel.Options{LoadBalance: false})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(len(opts.ActiveAttrs)), secs(b.Cluster.Total()), secs(nb.Cluster.Total()),
		})
	}
	return t
}

// Fig5Cover reproduces Figures 5(i)/(j)/(k): ParCover vs ParCovern on the
// GFDs mined from each dataset, as workers vary.
func Fig5Cover(c Config, key, id string) *Table {
	spec := specs[key]
	g, sigma := c.graphFor(spec)
	res := discovery.Mine(g, mineOpts(spec.k, sigma))
	sigmaSet := res.All()
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Cover: varying n (%s), |Σ|=%d", spec.name, len(sigmaSet)),
		Header: []string{"n", "ParCover", "ParCovern", "groups", "|cover|"},
	}
	for _, n := range c.Workers {
		c.logf("%s n=%d", id, n)
		pg := parallel.Cover(sigmaSet, newEngine(n))
		pn := parallel.CoverUngrouped(sigmaSet, newEngine(n))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			secs(pg.CoverTime()),
			secs(pn.CoverTime()),
			fmt.Sprint(pg.Groups),
			fmt.Sprint(len(pg.Cover)),
		})
	}
	return t
}

// Fig5SigmaSize reproduces Figure 5(l): cover computation as |Σ| grows
// (generated GFD sets, as in the paper's GFD generator), n=4.
func Fig5SigmaSize(c Config) *Table {
	g := dataset.YAGO2Sim(int(200*c.Scale), c.Seed)
	t := &Table{
		ID:     "fig5l",
		Title:  "Cover: varying |Σ| (generated GFDs, paper scale 1:5), n=4",
		Header: []string{"|Σ|", "ParCover", "ParCovern", "|cover|"},
	}
	for _, m := range []int{400, 800, 1200, 1600, 2000} {
		count := int(float64(m) * c.Scale)
		c.logf("fig5l |Σ|=%d", count)
		sigmaSet := dataset.GenGFDs(g, dataset.GFDGenConfig{Count: count, K: 4, Seed: c.Seed})
		pg := parallel.Cover(sigmaSet, newEngine(4))
		pn := parallel.CoverUngrouped(sigmaSet, newEngine(4))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(count),
			secs(pg.CoverTime()),
			secs(pn.CoverTime()),
			fmt.Sprint(len(pg.Cover)),
		})
	}
	return t
}

// Fig6 reproduces the sequential-cost table ("Figure 6"): SeqDisGFD and
// SeqCover wall-clock, with rule counts and average supports for GFDs,
// GCFDs and AMIE on DBpedia and YAGO2.
func Fig6(c Config) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Sequential cost and rule count / avg support",
		Header: []string{"dataset", "SeqDisGFD", "SeqCover", "GFDs", "GCFDs", "AMIE"},
	}
	for _, key := range []string{"dbpedia", "yago2"} {
		spec := specs[key]
		g, sigma := c.graphFor(spec)
		c.logf("fig6 %s mine", key)
		start := time.Now()
		res := discovery.Mine(g, mineOpts(spec.k, sigma))
		mineTime := time.Since(start)
		start = time.Now()
		cover := discovery.MinedCover(res)
		coverTime := time.Since(start)
		gfdCell := fmt.Sprintf("%d/%.0f", len(cover), avgSupport(cover))

		c.logf("fig6 %s gcfd", key)
		gres := gcfd.Mine(g, gcfd.Options{MaxPathLen: 2, Support: sigma})
		gcfdCell := fmt.Sprintf("%d/%.0f", len(gres.Rules), gcfd.AvgSupport(gres))

		c.logf("fig6 %s amie", key)
		arules := amie.Mine(g, amie.Options{MinSupport: sigma, MinPCAConfidence: 0.5})
		amieCell := fmt.Sprintf("%d/%.0f", len(arules), amie.AvgSupport(arules))

		t.Rows = append(t.Rows, []string{
			spec.name, secs(mineTime), secs(coverTime), gfdCell, gcfdCell, amieCell,
		})
	}
	return t
}

func avgSupport(ms []discovery.Mined) float64 {
	if len(ms) == 0 {
		return 0
	}
	total := 0
	for _, m := range ms {
		total += m.Support
	}
	return float64(total) / float64(len(ms))
}

// Fig7 reproduces the error-detection accuracy table ("Figure 7"):
// accuracy of GFDs vs GCFDs vs AMIE on YAGO with injected noise, across
// (σ, k, |Γ|) settings.
func Fig7(c Config) *Table {
	spec := specs["yago2"]
	g, sigmaBase := c.graphFor(spec)
	prof := discovery.NewProfile(g, nil)
	t := &Table{
		ID:     "fig7",
		Title:  fmt.Sprintf("Error detection accuracy (%s), α=10%% β=50%% noise", spec.name),
		Header: []string{"(σ,k,|Γ|)", "GFDs", "GCFDs", "AMIE"},
	}
	configs := []struct {
		sigma, k, gamma int
	}{
		{sigmaBase / 2, 2, 5},
		{sigmaBase, 2, 5},
		{sigmaBase, 3, 5},
		{sigmaBase, 3, 3},
	}
	for _, cf := range configs {
		c.logf("fig7 σ=%d k=%d Γ=%d", cf.sigma, cf.k, cf.gamma)
		opts := mineOpts(cf.k, cf.sigma)
		opts.ActiveAttrs = prof.Stats.TopAttributes(cf.gamma)
		res := discovery.Mine(g, opts)
		rules := discovery.MinedCover(res)
		// Target the consequences Y of the discovered rules, per the paper.
		targets := rhsAttrs(rules)
		noisy, dirty := dataset.Noise(g, dataset.NoiseConfig{
			AlphaPct: 10, BetaPct: 50, Seed: c.Seed, TargetAttrs: targets, EdgeShare: 0.4,
		})
		gfds := make([]*core.GFD, len(rules))
		for i, m := range rules {
			gfds[i] = m.GFD
		}
		gfdAcc := dataset.Accuracy(eval.ViolatingNodes(noisy, gfds), dirty)

		gres := gcfd.Mine(g, gcfd.Options{MaxPathLen: 2, Support: cf.sigma})
		gcfdAcc := dataset.Accuracy(gcfd.ViolatingNodes(noisy, gres), dirty)

		arules := amie.Mine(g, amie.Options{MinSupport: cf.sigma, MinPCAConfidence: 0.5, MaxRules: 60})
		amieAcc := dataset.Accuracy(amie.PredictedViolations(noisy, arules), dirty)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%d,%d,%d)", cf.sigma, cf.k, cf.gamma),
			fmt.Sprintf("%.1f%%", 100*gfdAcc),
			fmt.Sprintf("%.1f%%", 100*gcfdAcc),
			fmt.Sprintf("%.1f%%", 100*amieAcc),
		})
	}
	return t
}

func rhsAttrs(ms []discovery.Mined) []string {
	set := make(map[string]bool)
	for _, m := range ms {
		switch m.GFD.RHS.Kind {
		case core.LConst:
			set[m.GFD.RHS.A] = true
		case core.LVar:
			set[m.GFD.RHS.A] = true
			set[m.GFD.RHS.B] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Fig8 reproduces the qualitative result ("Figure 8"): the three real-life
// YAGO2 rules — family-name inheritance (GFD1), Gold Bear/Gold Lion
// exclusion (GFD2) and the US/Norway citizenship exclusion (GFD3) — are
// rediscovered by the miner from the simulated YAGO2.
func Fig8(c Config) *Table {
	spec := specs["yago2"]
	scale := int(float64(spec.scale) * c.Scale)
	g := spec.build(scale, c.Seed)
	sigma := scale / 20
	opts := mineOpts(3, sigma)
	opts.MaxNegatives = 0 // the qualitative sweep keeps every negative
	res := discovery.Mine(g, opts)

	t := &Table{
		ID:     "fig8",
		Title:  fmt.Sprintf("Real-life GFDs rediscovered (%s, σ=%d)", spec.name, sigma),
		Header: []string{"rule", "example", "supp"},
	}
	addFirst := func(name string, pick func(m discovery.Mined) bool, ms []discovery.Mined) {
		for _, m := range ms {
			if pick(m) {
				t.Rows = append(t.Rows, []string{name, m.GFD.String(), fmt.Sprint(m.Support)})
				return
			}
		}
		t.Rows = append(t.Rows, []string{name, "NOT FOUND", "-"})
	}
	addFirst("GFD1 (family name)", func(m discovery.Mined) bool {
		phi := m.GFD
		return phi.Q.Size() == 1 && len(phi.X) == 0 &&
			phi.Q.Edges[0].Label == "hasChild" &&
			phi.Q.NodeLabels[0] == pattern.Wildcard &&
			phi.RHS.Equal(core.Vars(0, "familyname", 1, "familyname"))
	}, res.Positives)
	addFirst("GFD2 (Gold Bear/Lion)", func(m discovery.Mined) bool {
		s := m.GFD.String()
		return m.GFD.IsNegative() && strings.Contains(s, "Gold Bear") && strings.Contains(s, "Gold Lion")
	}, res.Negatives)
	addFirst("GFD3 (US/Norway)", func(m discovery.Mined) bool {
		s := m.GFD.String()
		return m.GFD.IsNegative() && strings.Contains(s, `"US"`) && strings.Contains(s, `"Norway"`)
	}, res.Negatives)
	t.Notes = append(t.Notes,
		fmt.Sprintf("mined %d positives, %d negatives in total", len(res.Positives), len(res.Negatives)))
	return t
}

// Infeasible reproduces the observation that opens Section 7: ParGFDn (no
// pruning) and ParArab (decoupled pattern/dependency mining) blow up where
// DisGFD completes. Work is bounded by a candidate budget; hitting it is
// the "fails to complete" signal.
func Infeasible(c Config) *Table {
	spec := specs["yago2"]
	g, sigma := c.graphFor(spec)
	budget := 2000000

	run := func(name string, mutate func(*discovery.Options)) []string {
		// Caps off: the blow-up the experiment demonstrates is exactly what
		// the caps exist to contain.
		opts := mineOpts(spec.k, sigma)
		opts.MaxPatternsPerLevel = 0
		opts.MaxExtensionsPerPattern = 0
		opts.CandidateBudget = budget
		mutate(&opts)
		start := time.Now()
		res := discovery.Mine(g, opts)
		status := "completed"
		if res.Stats.BudgetExhausted {
			status = "BUDGET EXHAUSTED"
		}
		return []string{
			name,
			secs(time.Since(start)),
			fmt.Sprint(res.Stats.CandidatesChecked),
			fmt.Sprint(res.Stats.PatternsVerified),
			fmt.Sprint(res.Stats.TotalTableRows),
			fmt.Sprint(res.Stats.PeakLiveRows),
			status,
		}
	}
	t := &Table{
		ID:     "infeas",
		Title:  fmt.Sprintf("Baseline infeasibility (%s), candidate budget %d", spec.name, budget),
		Header: []string{"algorithm", "time", "candidates", "patterns", "table-rows", "peak-live-rows", "status"},
	}
	c.logf("infeas DisGFD")
	t.Rows = append(t.Rows, run("DisGFD", func(o *discovery.Options) {}))
	c.logf("infeas ParArab")
	t.Rows = append(t.Rows, run("ParArab (decoupled)", func(o *discovery.Options) { o.Decoupled = true }))
	c.logf("infeas ParGFDn")
	t.Rows = append(t.Rows, run("ParGFDn (no pruning)", func(o *discovery.Options) { o.DisablePruning = true }))
	return t
}
