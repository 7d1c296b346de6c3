package partition_test

import (
	"testing"

	"structura/internal/graph"
	"structura/internal/partition"
	rt "structura/internal/runtime"
)

// FuzzPartition throws arbitrary graphs and shard counts at the planner and
// requires the plan invariants (bounds cover [0,n), no empty shard, Stats
// consistent — see checkPlan) plus the cost model: the exchange Run reports
// must equal the brute-force recount, clean and under a scripted restart
// and topology swap, in full and delta mode.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4, 0, 5}, uint8(2), uint8(16), false)
	f.Add([]byte{0, 1, 1, 2, 7, 3, 3, 0, 5, 6}, uint8(3), uint8(9), true)
	f.Add([]byte{}, uint8(1), uint8(1), false)
	f.Add([]byte{9, 9, 0, 0, 1, 0}, uint8(7), uint8(11), true)
	f.Fuzz(func(t *testing.T, edges []byte, kRaw, nRaw uint8, directed bool) {
		n := int(nRaw)%64 + 1
		// build adds the edge list with every endpoint shifted by off; the
		// shifted copy is the churned topology the scripted perturber swaps in.
		build := func(off int) *graph.CSR {
			var g *graph.Graph
			if directed {
				g = graph.NewDirected(n)
			} else {
				g = graph.New(n)
			}
			for i := 0; i+1 < len(edges) && i < 512; i += 2 {
				u, v := (int(edges[i])+off)%n, int(edges[i+1])%n
				if u != v && !g.HasEdge(u, v) {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
					}
				}
			}
			return g.Freeze()
		}
		c, alt := build(0), build(1)
		k := int(kRaw)%n + 1
		for _, strat := range []partition.Strategy{partition.Contiguous, partition.DegreeBalanced} {
			plan, err := partition.New(c, k, partition.WithStrategy(strat))
			if err != nil {
				t.Fatalf("New(k=%d, n=%d, %v): %v", k, n, strat, err)
			}
			checkPlan(t, c, plan)
			for _, delta := range []bool{false, true} {
				opts := []rt.Option{rt.WithMaxRounds(2 * n), rt.WithParallelism(3)}
				if delta {
					opts = append(opts, rt.WithDelta())
				}
				checkAgainstRecount(t, "clean", plan, c, nil, opts...)
				checkAgainstRecount(t, "scripted", plan, c,
					func() rt.Perturber { return &churnPerturber{alt: alt} }, opts...)
			}
		}
	})
}
