package heal

import (
	"structura/internal/graph"
	"structura/internal/hypercube"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// cubeEngine maintains hypercube safety levels on a churned cube support.
// The invariant is the footnote-3 fixed point on the live neighborhood;
// localized repair is the budgeted RelaxLevels frontier (levels can move in
// both directions under churn, so the budget — not monotonicity — bounds
// the attempt), and escalation is the from-the-top RecomputeLevels whose
// convergence monotonicity does guarantee.
type cubeEngine struct {
	g      *graph.Graph
	faulty []bool
	levels []int
	dim    int
}

func newCubeEngine(seed uint64) (*cubeEngine, error) {
	cube := sim.FaultyCube(seed)
	faulty := make([]bool, cube.N())
	for v := range faulty {
		faulty[v] = cube.Faulty(v)
	}
	return newCubeEngineOver(cube.Graph(), faulty, cube.Dim()), nil
}

// newCubeEngineOver maintains dimension-dim safety levels over g (retained
// and only read), starting from the from-the-top recompute.
func newCubeEngineOver(g *graph.Graph, faulty []bool, dim int) *cubeEngine {
	levels := make([]int, g.N())
	hypercube.RecomputeLevels(g, levels, faulty, dim)
	return &cubeEngine{g: g, faulty: faulty, levels: levels, dim: dim}
}

func (e *cubeEngine) Name() string       { return "hypercube" }
func (e *cubeEngine) Live() *graph.Graph { return e.g }

// Apply moves no level, so only the endpoints, whose rows changed, can
// have a new verdict.
func (e *cubeEngine) Apply(ev sim.Event) ([]int, bool) { return edgeEndpoints(ev) }

func (e *cubeEngine) CheckLocal(dirty []int) []sim.Violation {
	if len(dirty) == 0 {
		return nil
	}
	bad := hypercube.InconsistentLevels(e.g, e.levels, e.faulty, e.dim, dirty)
	out := make([]sim.Violation, 0, len(bad))
	for _, v := range bad {
		out = append(out, sim.Violation{
			Invariant: "hypercube-level-consistent", Node: v, Edge: [2]int{-1, -1},
			Detail: "level disagrees with the footnote-3 rule on the live neighborhood",
		})
	}
	return out
}

// Repair relaxes from the violated nodes and asks to be verified on the
// seeds and the closed neighborhoods of the nodes it touched: a node's
// rule reads its neighbors' levels, and a level moves only within Touched.
func (e *cubeEngine) Repair(viols []sim.Violation, b Budget) RepairOutcome {
	seeds := violationNodes(viols)
	touched, rounds, ok := hypercube.RelaxLevels(e.g, e.levels, e.faulty, e.dim,
		seeds, b.MaxRounds, b.MaxTouched)
	return RepairOutcome{
		Touched: touched, Rounds: rounds, OK: ok,
		Recheck: appendClosedNeighborhoods(e.g, seeds, touched...),
	}
}

func (e *cubeEngine) Recompute() (int, error) {
	return hypercube.RecomputeLevels(e.g, e.levels, e.faulty, e.dim), nil
}

func (e *cubeEngine) Snapshot() *sim.World {
	levels := append([]int(nil), e.levels...)
	return &sim.World{
		Scenario: "heal-hypercube",
		Graph:    e.g.Clone(),
		Stats:    runtime.Stats{Stable: true},
		Cube: &sim.CubeWorld{
			Dim:    e.dim,
			Faulty: append([]bool(nil), e.faulty...),
			Levels: levels,
			// Supervised maintenance legitimately moves levels both ways, so
			// the one-shot monotonicity ledger is vacuous here: MinLevels
			// mirrors Levels and no peaks are recorded.
			MinLevels: append([]int(nil), levels...),
			Peaks:     make([]int, len(levels)),
		},
	}
}
