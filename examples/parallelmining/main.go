// Parallelmining demonstrates Theorem 5 (parallel scalability): the same
// discovery workload is run on the simulated shared-nothing cluster with a
// growing number of workers; the simulated response time of DisGFD (with
// load balancing) and ParGFDnb (without) falls as n grows — the shape of
// the paper's Figures 5(a)-(c).
package main

import (
	"context"
	"fmt"

	gfd "repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

func main() {
	g := dataset.IMDBSim(900, 11)
	fmt.Println("graph:", g)
	opts := gfd.DiscoverOptions{
		K: 3, Support: 60, MaxX: 1, ConstantsPerAttr: 5, WildcardNodes: true,
		MaxExtensionsPerPattern: 20, MaxPatternsPerLevel: 100, MaxLevels: 4,
		MaxNegatives: 100,
	}

	fmt.Println("\n n   DisGFD      ParGFDnb    skew(DisGFD)  skew(nb)")
	var base float64
	for _, n := range []int{1, 2, 4, 8, 12, 16, 20} {
		b := parallel.Mine(context.Background(), g, opts, cluster.New(cluster.Config{Workers: n}), parallel.Options{LoadBalance: true})
		nb := parallel.Mine(context.Background(), g, opts, cluster.New(cluster.Config{Workers: n}), parallel.Options{LoadBalance: false})
		tb := b.Cluster.Total().Seconds()
		if n == 1 {
			base = tb
		}
		fmt.Printf("%2d   %7.3fs    %7.3fs    %5.2f        %5.2f   (speedup ×%.1f)\n",
			n, tb, nb.Cluster.Total().Seconds(), b.Cluster.Skew(), nb.Cluster.Skew(), base/tb)
	}

	// Cover computation is parallel scalable too (Fig. 5(i)-(k)).
	res := gfd.Discover(g, opts)
	sigma := res.All()
	fmt.Printf("\ncover of |Σ|=%d:\n n   ParCover   ParCovern\n", len(sigma))
	for _, n := range []int{4, 8, 16} {
		pg := parallel.Cover(sigma, cluster.New(cluster.Config{Workers: n}))
		pn := parallel.CoverUngrouped(sigma, cluster.New(cluster.Config{Workers: n}))
		fmt.Printf("%2d   %7.4fs   %7.4fs   (|cover|=%d, groups=%d)\n",
			n, pg.CoverTime().Seconds(), pn.CoverTime().Seconds(), len(pg.Cover), pg.Groups)
	}
}
