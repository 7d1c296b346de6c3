package labeling

import (
	"errors"
	"math/rand"

	"structura/internal/graph"
)

// DynamicMIS maintains the lexicographically-first MIS (by random node
// priorities) of a changing graph, the setting of [30]: although building
// an MIS from scratch needs Theta(log n) rounds, a single topology change
// costs only O(1) adjustments in expectation when priorities are random.
//
// Membership is the unique fixed point of: v is in the MIS iff no
// higher-priority neighbor is in the MIS.
type DynamicMIS struct {
	g    *graph.Graph
	prio Priority
	in   []bool
}

// NewDynamicMIS computes the initial greedy MIS of g under random
// priorities drawn from r.
func NewDynamicMIS(g *graph.Graph, r *rand.Rand) (*DynamicMIS, error) {
	if g.Directed() {
		return nil, errors.New("labeling: dynamic MIS needs an undirected graph")
	}
	d := &DynamicMIS{g: g.Clone(), prio: make(Priority, g.N())}
	for i := range d.prio {
		d.prio[i] = r.Float64()
	}
	in, err := GreedyMIS(d.g, d.prio)
	if err != nil {
		return nil, err
	}
	d.in = in
	return d, nil
}

// InMIS reports whether v is currently in the MIS.
func (d *DynamicMIS) InMIS(v int) bool {
	return v >= 0 && v < len(d.in) && d.in[v]
}

// Members returns the sorted MIS membership.
func (d *DynamicMIS) Members() []int {
	var out []int
	for v, in := range d.in {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// Graph exposes (a copy of) the maintained graph for verification.
func (d *DynamicMIS) Graph() *graph.Graph { return d.g.Clone() }

// AddEdge inserts edge (u,v) and restores the MIS invariant, returning the
// number of membership flips (the "adjustments" of [30]).
func (d *DynamicMIS) AddEdge(u, v int) (int, error) {
	if err := d.g.AddEdge(u, v); err != nil {
		return 0, err
	}
	return d.repair(u, v), nil
}

// RemoveEdge deletes edge (u,v) and restores the invariant, returning the
// number of membership flips. Removing a missing edge is an error.
func (d *DynamicMIS) RemoveEdge(u, v int) (int, error) {
	if !d.g.RemoveEdge(u, v) {
		return 0, errors.New("labeling: edge does not exist")
	}
	return d.repair(u, v), nil
}

// repair re-establishes the fixed point starting from the endpoints of the
// changed edge, cascading only through affected nodes, and returns the
// number of flips.
func (d *DynamicMIS) repair(u, v int) int {
	_, flips, _ := MaintainMIS(d.g, d.in, d.prio, []int{u, v}, 0)
	return flips
}

// Verify checks the MIS fixed point; it returns the first violated node.
func (d *DynamicMIS) Verify() error {
	for v := range d.in {
		should := true
		d.g.EachNeighbor(v, func(w int, _ float64) {
			if d.in[w] && d.prio[w] > d.prio[v] {
				should = false
			}
		})
		if should != d.in[v] {
			return errors.New("labeling: dynamic MIS invariant violated")
		}
	}
	if !IsMIS(d.g, SetOf(d.Members())) {
		return errors.New("labeling: maintained set is not an MIS")
	}
	return nil
}
