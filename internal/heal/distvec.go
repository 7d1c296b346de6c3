package heal

import (
	"structura/internal/distvec"
	"structura/internal/graph"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// distvecEngine supervises the distance-vector labels toward destination 0
// via the distvec.Maintainer: split-horizon/poisoned-reverse advertisements
// with a hop ceiling. Local consistency is a complete detector (the global
// fixed point equals BFS hop counts). rule(x) reads x's row and its
// neighbors' (dist, next), so an event moves the verdict of its endpoints,
// whose rows changed, and of the neighbors of an endpoint it poisoned,
// whose offers changed: Apply names exactly those, and Repair names the
// seeds and the closed neighborhoods of the nodes it moved.
type distvecEngine struct {
	g *graph.Graph // the support the maintainer reads
	m *distvec.Maintainer
}

func newDistVecEngine(seed uint64) (*distvecEngine, error) {
	return newDistVecEngineOver(sim.DistVecRing(seed), 0)
}

func newDistVecEngineOver(g *graph.Graph, dest int) (*distvecEngine, error) {
	m, err := distvec.NewMaintainer(g, dest)
	if err != nil {
		return nil, err
	}
	return &distvecEngine{g: g, m: m}, nil
}

// NewDistVecEngineOver builds a supervised distance-vector engine over the
// caller's topology (retained and only read) toward dest, for callers that
// maintain route labels on their own graph rather than a sim scenario: the
// serving layer's ingest path. RouteLabels exposes the labels an epoch
// publishes.
func NewDistVecEngineOver(g *graph.Graph, dest int) (Engine, error) {
	return newDistVecEngineOver(g, dest)
}

// RouteLabels returns copies of the current route labels: hop distances
// toward the destination (+Inf unreachable) and next hops (-1 at the
// destination and when unreachable).
func (e *distvecEngine) RouteLabels() (dist []float64, next []int) {
	return e.m.Dist(), e.m.NextHops()
}

// Route returns node v's current hop distance and next hop, without
// copying the label arrays.
func (e *distvecEngine) Route(v int) (float64, int) { return e.m.Route(v) }

func (e *distvecEngine) Name() string       { return "distvec" }
func (e *distvecEngine) Live() *graph.Graph { return e.g }

func (e *distvecEngine) Apply(ev sim.Event) ([]int, bool) {
	dirty, applied := edgeEndpoints(ev)
	if ev.Op == sim.OpRemoveEdge {
		// Neighbors are read from the post-batch graph: a neighbor that lost
		// or gained its edge to the endpoint in the same batch is an
		// endpoint of that event and named by it.
		pu, pv := e.m.EdgeRemoved(ev.U, ev.V)
		if pu {
			dirty = appendClosedNeighborhoods(e.g, dirty, ev.U)
		}
		if pv {
			dirty = appendClosedNeighborhoods(e.g, dirty, ev.V)
		}
	}
	return dirty, applied
}

func (e *distvecEngine) CheckLocal(dirty []int) []sim.Violation {
	if len(dirty) == 0 {
		return nil
	}
	bad := e.m.Inconsistent(dirty)
	out := make([]sim.Violation, 0, len(bad))
	for _, v := range bad {
		out = append(out, sim.Violation{
			Invariant: "distvec-local-consistency", Node: v, Edge: [2]int{-1, -1},
			Detail: "label disagrees with neighbors' poisoned advertisements",
		})
	}
	return out
}

// Repair relaxes from the violated nodes and asks to be verified on the
// seeds and the closed neighborhoods of the nodes it moved. That is exact:
// rule(x) reads only x's row and its neighbors' labels, the topology stands
// still while a batch heals, and detection judged every node whose verdict
// the batch moved, so a node's verdict can differ from detection's only if
// it was a seed, moved, or neighbors a moved node.
func (e *distvecEngine) Repair(viols []sim.Violation, b Budget) RepairOutcome {
	// A ctx error surfaces as !OK; the Supervisor re-checks its own context
	// after Repair and aborts instead of escalating.
	seeds := violationNodes(viols)
	res, _ := e.m.Repair(b.Ctx, seeds, b.MaxRounds, b.MaxTouched)
	return RepairOutcome{
		Touched: res.Touched, Rounds: res.Rounds, OK: res.OK,
		Recheck: appendClosedNeighborhoods(e.g, seeds, res.Moved...),
	}
}

func (e *distvecEngine) Recompute() (int, error) { return e.m.Recompute(), nil }

func (e *distvecEngine) Snapshot() *sim.World {
	return &sim.World{
		Scenario: "heal-distvec",
		Graph:    e.g.Clone(),
		Stats:    runtime.Stats{Stable: true},
		Dist:     &sim.DistWorld{Dest: e.m.Dest(), Dist: e.m.Dist(), Stable: true},
	}
}
