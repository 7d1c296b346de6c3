package labeling

import (
	"math/rand"
	"sort"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
)

// pickDominatedMISNode finds an MIS node all of whose neighbors are
// dominated by at least one OTHER MIS node — the adversarial deletion
// target: removing it must not strand any neighbor, so the repair cascade
// has to re-establish the fixed point across the whole neighborhood.
func pickDominatedMISNode(d *DynamicMIS) int {
	g := d.Graph()
	for _, m := range d.Members() {
		allCovered := true
		deg := 0
		g.EachNeighbor(m, func(w int, _ float64) {
			deg++
			covered := false
			g.EachNeighbor(w, func(x int, _ float64) {
				if x != m && d.InMIS(x) {
					covered = true
				}
			})
			if !covered {
				allCovered = false
			}
		})
		if deg > 0 && allCovered {
			return m
		}
	}
	return -1
}

// TestDynamicMISAdversarialDeletion deletes an MIS node (edge by edge, in
// descending neighbor-priority order — the order that maximizes repair
// cascades) whose neighbors are all dominated by other MIS nodes, verifying
// the fixed point after every single removal.
func TestDynamicMISAdversarialDeletion(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := gen.SparseErdosRenyi(r, 48, 0.15)
	d, err := NewDynamicMIS(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("initial MIS invalid: %v", err)
	}
	m := pickDominatedMISNode(d)
	if m < 0 {
		t.Fatal("no MIS node with fully-dominated neighborhood; grow the test graph")
	}
	// Collect m's neighbors and sort them by descending priority so each
	// removal exposes the highest-priority candidate first.
	type nb struct {
		v    int
		prio float64
	}
	var nbrs []nb
	d.Graph().EachNeighbor(m, func(w int, _ float64) {
		nbrs = append(nbrs, nb{v: w, prio: d.prio[w]})
	})
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].prio > nbrs[j].prio })
	for i, w := range nbrs {
		if _, err := d.RemoveEdge(m, w.v); err != nil {
			t.Fatalf("removal %d (%d,%d): %v", i, m, w.v, err)
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("invariant broken after removing edge (%d,%d): %v", m, w.v, err)
		}
	}
	// Fully deleted: m is isolated, and an isolated node is always in the
	// MIS.
	if !d.InMIS(m) {
		t.Errorf("isolated node %d must be an MIS member", m)
	}
}

// TestDynamicMISRemovalReelection removes the single edge dominating a
// non-member: that neighbor must flip in, and the flip must be counted.
func TestDynamicMISRemovalReelection(t *testing.T) {
	// Star: hub 0 with 4 leaves. Rig priorities so the hub wins.
	g := graph.New(5)
	for leaf := 1; leaf < 5; leaf++ {
		if err := g.AddEdge(0, leaf); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	d, err := NewDynamicMIS(g, r)
	if err != nil {
		t.Fatal(err)
	}
	d.prio[0] = 2.0 // strictly above every leaf's [0,1) draw
	if d.in, err = GreedyMIS(d.g, d.prio); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if !d.InMIS(0) || d.InMIS(1) {
		t.Fatalf("rigged star MIS wrong: members %v", d.Members())
	}
	flips, err := d.RemoveEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flips != 1 {
		t.Errorf("expected exactly one flip (leaf 1 re-elected), got %d", flips)
	}
	if !d.InMIS(1) {
		t.Error("leaf 1 lost its only dominator and must join the MIS")
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicMISChurnSoak drives a long deterministic add/remove churn
// sequence, verifying the fixed point after every mutation.
func TestDynamicMISChurnSoak(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := gen.SparseErdosRenyi(r, 32, 0.12)
	d, err := NewDynamicMIS(g, r)
	if err != nil {
		t.Fatal(err)
	}
	n := 32
	for i := 0; i < 400; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if d.Graph().HasEdge(u, v) {
			if _, err := d.RemoveEdge(u, v); err != nil {
				t.Fatalf("step %d remove (%d,%d): %v", i, u, v, err)
			}
		} else {
			if _, err := d.AddEdge(u, v); err != nil {
				t.Fatalf("step %d add (%d,%d): %v", i, u, v, err)
			}
		}
		if err := d.Verify(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}
