package heal

import (
	"math"
	"math/rand"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/sim"
)

// warmGraph is a seeded connected-ish test topology.
func warmGraph(seed int64, n int) *graph.Graph {
	g := gen.SparseErdosRenyi(rand.New(rand.NewSource(seed)), n, 4.0/float64(n))
	// Ring underlay keeps it connected so CDS construction succeeds.
	for i := 0; i < n; i++ {
		if !g.HasEdge(i, (i+1)%n) {
			_ = g.AddEdge(i, (i+1)%n)
		}
	}
	return g
}

// TestWarmStartMatchesCold: engines rebuilt from exported labels (the
// durable-epoch path) answer identically to the engines that computed them,
// with zero violations on a full-audit CheckLocal.
func TestWarmStartMatchesCold(t *testing.T) {
	g := warmGraph(3, 80)

	cold, err := newDistVecEngineOver(g.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, next := cold.RouteLabels()
	warm, err := NewDistVecEngineFromLabels(g.Clone(), 0, dist, next)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	if v := warm.CheckLocal(all); len(v) != 0 {
		t.Fatalf("warm distvec engine has %d violation(s) on clean labels: %v", len(v), v[0])
	}
	wdist, wnext := warm.(*distvecEngine).RouteLabels()
	for v := range dist {
		if dist[v] != wdist[v] || next[v] != wnext[v] {
			t.Fatalf("route label %d diverged: (%v,%d) vs (%v,%d)", v, dist[v], next[v], wdist[v], wnext[v])
		}
	}

	coldMIS, err := newMISEngineOver(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	warmMIS, err := NewMISEngineFromLabels(g.Clone(), coldMIS.MISLabels())
	if err != nil {
		t.Fatal(err)
	}
	if v := warmMIS.CheckLocal(all); len(v) != 0 {
		t.Fatalf("warm MIS engine has %d violation(s) on clean labels", len(v))
	}

	coldCDS, err := newCDSEngineOver(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	members := make([]bool, g.N())
	for _, v := range coldCDS.CDSMembers() {
		members[v] = true
	}
	warmCDS, err := NewCDSEngineFromLabels(g.Clone(), members)
	if err != nil {
		t.Fatal(err)
	}
	if v := warmCDS.CheckLocal(all); len(v) != 0 {
		t.Fatalf("warm CDS engine has %d violation(s) on clean labels", len(v))
	}
}

// TestHealDirtyWarmStart simulates recovery with a label lag: the durable
// labels predate a handful of committed edge flips. Warm-started engines
// fed exactly the flips' dirty set through HealDirty must converge to the
// same fixed point a cold rebuild reaches.
func TestHealDirtyWarmStart(t *testing.T) {
	g := warmGraph(9, 60)

	cold, err := newDistVecEngineOver(g.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, next := cold.RouteLabels()

	// Three topology changes the labels never saw.
	changed := g.Clone()
	flips := []sim.Event{
		{Op: sim.OpAddEdge, U: 5, V: 40},
		{Op: sim.OpRemoveEdge, U: 5, V: 6},
		{Op: sim.OpAddEdge, U: 12, V: 33},
	}
	var dirty []int
	for _, e := range flips {
		if e.Op == sim.OpAddEdge {
			if changed.HasEdge(e.U, e.V) {
				continue
			}
			_ = changed.AddEdge(e.U, e.V)
		} else {
			if !changed.RemoveEdge(e.U, e.V) {
				continue
			}
		}
		dirty = append(dirty, e.U, e.V)
	}

	warm, err := NewDistVecEngineFromLabels(changed.Clone(), 0, dist, next)
	if err != nil {
		t.Fatal(err)
	}
	sup := &Supervisor{Engine: warm, Budget: Budget{MaxRounds: 200, MaxTouched: changed.N()}}
	rep, err := sup.HealDirty(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Standing) != 0 {
		t.Fatalf("%d standing violation(s) after warm heal", len(rep.Standing))
	}

	// The healed labels must equal a cold rebuild over the new topology,
	// next hops included: ties go to the lowest ID, so the fixed point is
	// a function of the edge set.
	truth, err := newDistVecEngineOver(changed.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tdist, tnext := truth.RouteLabels()
	hdist, hnext := warm.(*distvecEngine).RouteLabels()
	for v := range tdist {
		same := hdist[v] == tdist[v] || (math.IsInf(hdist[v], 1) && math.IsInf(tdist[v], 1))
		if !same {
			t.Fatalf("healed dist[%d] = %v, cold = %v", v, hdist[v], tdist[v])
		}
		if hnext[v] != tnext[v] {
			t.Fatalf("healed next[%d] = %d, cold = %d", v, hnext[v], tnext[v])
		}
	}

	// Full-audit detector agrees nothing is left.
	all := make([]int, changed.N())
	for i := range all {
		all[i] = i
	}
	if v := warm.CheckLocal(all); len(v) != 0 {
		t.Fatalf("full audit found %d violation(s) after warm heal", len(v))
	}
}
