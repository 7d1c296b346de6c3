package heal

import (
	"structura/internal/graph"
	"structura/internal/labeling"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// misEngine keeps the priority-greedy MIS membership at its fixed point
// under churn. Detection is exact and purely local: an edge flip can change
// only its endpoints' election rule, so the endpoints are the complete
// candidate set. Repair is the MaintainMIS priority-descending cascade;
// escalation re-runs the distributed three-color election, whose stable
// outcome is the same fixed point.
type misEngine struct {
	g    *graph.Graph
	prio labeling.Priority
	in   []bool
}

func newMISEngine(seed uint64) (*misEngine, error) {
	return newMISEngineOver(sim.MISGraph(seed))
}

func newMISEngineOver(g *graph.Graph) (*misEngine, error) {
	prio := labeling.PriorityByID(g.N())
	in, err := labeling.GreedyMIS(g, prio)
	if err != nil {
		return nil, err
	}
	return &misEngine{g: g, prio: prio, in: in}, nil
}

// NewMISEngineOver builds a supervised MIS engine over the caller's
// topology (retained and only read) under ID priorities, for callers
// maintaining the election on their own graph: the serving layer's ingest
// path. MISLabels exposes the
// membership an epoch publishes.
func NewMISEngineOver(g *graph.Graph) (Engine, error) {
	return newMISEngineOver(g)
}

// MISLabels returns a copy of the current MIS membership.
func (e *misEngine) MISLabels() []bool {
	return append([]bool(nil), e.in...)
}

// InMIS reports node v's current membership.
func (e *misEngine) InMIS(v int) bool { return e.in[v] }

func (e *misEngine) Name() string       { return "mis" }
func (e *misEngine) Live() *graph.Graph { return e.g }

func (e *misEngine) Apply(ev sim.Event) ([]int, bool) { return edgeEndpoints(ev) }

func (e *misEngine) CheckLocal(dirty []int) []sim.Violation {
	bad := labeling.MISFixedPointViolations(e.g, e.in, e.prio, dirty)
	out := make([]sim.Violation, 0, len(bad))
	for _, v := range bad {
		out = append(out, sim.Violation{
			Invariant: "mis-fixed-point", Node: v, Edge: [2]int{-1, -1},
			Detail: "membership disagrees with the priority-greedy rule",
		})
	}
	return out
}

// Repair cascades re-elections from the violated nodes. The cascade has no
// sweep structure, so the flip count stands in for repair rounds and the
// MaxTouched bound is the budget that matters.
//
// The repair is verified on Touched alone. A node's rule reads only its
// higher-priority neighbors' membership, and an OK cascade pops every seed
// and every lower-priority neighbor of every flip, so Touched holds every
// node whose verdict can differ from detection's; the rest of the dirty
// set was judged consistent and nothing it reads has moved since.
func (e *misEngine) Repair(viols []sim.Violation, b Budget) RepairOutcome {
	// A ctx error surfaces as !OK; the Supervisor re-checks its own context
	// after Repair and aborts instead of escalating.
	touched, flips, ok, _ := labeling.MaintainMISContext(b.Ctx, e.g, e.in, e.prio, violationNodes(viols), b.MaxTouched)
	return RepairOutcome{Touched: touched, Rounds: flips, OK: ok, Recheck: touched}
}

func (e *misEngine) Recompute() (int, error) {
	// Escalation re-runs the full election under delta-frontier stepping:
	// the outcome is bit-identical to full mode, and a supervised
	// recompute is exactly the steady-state regime (most of the graph is
	// already at the fixed point) where frontier rounds are O(changes).
	res, err := labeling.DistributedMIS(e.g, e.prio, runtime.WithDelta())
	if err != nil {
		return 0, err
	}
	for v := range e.in {
		e.in[v] = res.Colors[v] == labeling.Black
	}
	return res.Rounds, nil
}

func (e *misEngine) Snapshot() *sim.World {
	colors := make([]labeling.Color, len(e.in))
	for v, in := range e.in {
		if in {
			colors[v] = labeling.Black
		} else {
			colors[v] = labeling.Gray
		}
	}
	return &sim.World{
		Scenario: "heal-mis",
		Graph:    e.g.Clone(),
		Stats:    runtime.Stats{Stable: true},
		MIS:      &sim.MISWorld{Colors: colors, Stable: true},
	}
}
