package partition_test

import (
	"fmt"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/partition"
	rt "structura/internal/runtime"
	"structura/internal/stats"
)

// checkPlan verifies the invariants every plan must satisfy: bounds cover
// [0,n) with no empty shard, and Stats agrees with a brute-force recount of
// the cut, the remote reader copies and the per-shard edge work. Shared
// with the fuzz target.
func checkPlan(t testing.TB, g *graph.CSR, plan *partition.Plan) {
	t.Helper()
	n := g.N()
	bounds := plan.Bounds()
	k := plan.K()
	if len(bounds) != k+1 || bounds[0] != 0 || int(bounds[k]) != n {
		t.Fatalf("bounds %v do not cover [0,%d)", bounds, n)
	}
	minOwned, maxOwned := n, 0
	for s := 0; s < k; s++ {
		own := int(bounds[s+1] - bounds[s])
		if own <= 0 {
			t.Fatalf("shard %d empty: bounds %v", s, bounds)
		}
		minOwned, maxOwned = min(minOwned, own), max(maxOwned, own)
	}
	cutHalf, maxHalf, totalHalf := 0, 0, 0
	shardHalf := make([]int, k)
	copies := make(map[[2]int]bool) // (node, reader shard) with the shard not its owner
	for u := 0; u < n; u++ {
		su := bruteOwner(bounds, u)
		shardHalf[su] += len(g.Neighbors(u))
		totalHalf += len(g.Neighbors(u))
		maxHalf = max(maxHalf, shardHalf[su])
		for _, w := range g.Neighbors(u) {
			if bruteOwner(bounds, int(w)) != su {
				cutHalf++
				copies[[2]int{int(w), su}] = true
			}
		}
	}
	want := partition.PlanStats{
		Shards: k, Nodes: n, Edges: g.M(),
		CutEdges: cutHalf, Ghosts: len(copies),
		MinOwned: minOwned, MaxOwned: maxOwned, Imbalance: 1,
	}
	if !g.Directed() {
		want.CutEdges /= 2
	}
	if want.Edges > 0 {
		want.CutFraction = float64(want.CutEdges) / float64(want.Edges)
	}
	want.GhostFraction = float64(want.Ghosts) / float64(n)
	if totalHalf > 0 {
		want.Imbalance = float64(maxHalf) * float64(k) / float64(totalHalf)
	}
	if got := plan.Stats(); got != want {
		t.Fatalf("Stats() = %+v, brute force %+v", got, want)
	}
}

func TestPlanInvariants(t *testing.T) {
	r := stats.NewRand(3)
	und := gen.SparseErdosRenyi(r, 200, 0.03).Freeze()
	dir := func() *graph.CSR {
		dg := graph.NewDirected(120)
		rr := stats.NewRand(5)
		for i := 0; i < 400; i++ {
			u, v := rr.Intn(120), rr.Intn(120)
			if u != v && !dg.HasEdge(u, v) {
				if err := dg.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dg.Freeze()
	}()
	for _, g := range []*graph.CSR{und, dir} {
		for _, k := range []int{1, 2, 3, 7, 16, 64} {
			for _, strat := range []partition.Strategy{partition.Contiguous, partition.DegreeBalanced} {
				plan, err := partition.New(g, k, partition.WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				checkPlan(t, g, plan)
			}
		}
	}
	if _, err := partition.New(und, 0); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := partition.New(und, und.N()+1); err == nil {
		t.Error("k>n must be rejected")
	}
}

// TestDegreeBalancedBounds: on a graph with strong degree skew, the
// degree-balanced strategy must spread half-edges far more evenly than
// contiguous splitting.
func TestDegreeBalancedBounds(t *testing.T) {
	// Star-heavy graph: node 0 connects to everyone, the tail is a path.
	g := graph.New(256)
	for v := 1; v < 256; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < 255; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	c := g.Freeze()
	cont, err := partition.New(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := partition.New(c, 4, partition.WithStrategy(partition.DegreeBalanced))
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, c, bal)
	if bi, ci := bal.Stats().Imbalance, cont.Stats().Imbalance; bi >= ci {
		t.Errorf("degree-balanced imbalance %.3f not better than contiguous %.3f", bi, ci)
	}
	// The hub shard must shrink to near the clamp floor.
	if b := bal.Bounds(); b[1] > 8 {
		t.Errorf("hub shard owns %d nodes; bounds %v", b[1], b)
	}
}

// TestPlanStats pins the stats on a hand-checkable graph: a cycle of 8 nodes
// split in half has exactly 2 cut edges and 2 ghosts per shard.
func TestPlanStats(t *testing.T) {
	g := graph.New(8)
	for v := 0; v < 8; v++ {
		if err := g.AddEdge(v, (v+1)%8); err != nil {
			t.Fatal(err)
		}
	}
	c := g.Freeze()
	plan, err := partition.New(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, c, plan)
	st := plan.Stats()
	if st.Shards != 2 || st.Nodes != 8 || st.Edges != 8 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.CutEdges != 2 || st.CutFraction != 0.25 {
		t.Errorf("cut: got %d (%.3f), want 2 (0.250)", st.CutEdges, st.CutFraction)
	}
	// Each half reads both endpoints of the two cut edges: 2 ghosts per shard.
	if st.Ghosts != 4 || st.GhostFraction != 0.5 {
		t.Errorf("ghosts: got %d (%.3f), want 4 (0.500)", st.Ghosts, st.GhostFraction)
	}
	if st.MinOwned != 4 || st.MaxOwned != 4 || st.Imbalance != 1 {
		t.Errorf("balance: %+v", st)
	}
}

// TestExchangeStats: the exchange of a delta run is well-formed (one priced
// round per kernel round, bytes at the state size, the largest round no
// smaller than the mean) and ships only changed boundary values: strictly
// less than every remote copy every round on a run that converges.
func TestExchangeStats(t *testing.T) {
	g := gen.SparseErdosRenyi(stats.NewRand(21), 120, 0.05).Freeze()
	plan, err := partition.New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	states, st, es, err := partition.Run(plan, hopInit, hopStep, nil,
		rt.WithMaxRounds(40), rt.WithDelta())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rt.RunCSR(g, hopInit, hopStep, rt.WithMaxRounds(40), rt.WithDelta())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatal("partition.Run diverged from RunCSR")
	}
	if !st.Stable || es.Rounds != st.Rounds {
		t.Errorf("exchange rounds %d, kernel rounds %d (stable=%v)", es.Rounds, st.Rounds, st.Stable)
	}
	if es.Values <= 0 || es.Bytes != es.Values*8 {
		t.Errorf("traffic accounting wrong: %+v", es)
	}
	if int64(es.MaxRoundValues) > es.Values || float64(es.MaxRoundValues) < es.ValuesPerRound() {
		t.Errorf("max-round bound violated: %+v", es)
	}
	if copies := plan.Stats().Ghosts; es.Values >= int64(copies)*int64(st.Rounds) {
		t.Errorf("delta exchange shipped %d values; a full exchange would be %d", es.Values, copies*st.Rounds)
	}
}
