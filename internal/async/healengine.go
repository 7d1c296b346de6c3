package async

import (
	"fmt"
	"math"

	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/sim"
)

// DistVecHealEngine adapts the asynchronous executor to heal.Engine: the
// supervisor's detect → repair → escalate cycle drives a message-passing
// distance-vector process instead of a synchronous kernel, unchanged. The
// executor runs in incremental mode — the supervisor's fault stream injects
// events at the current virtual time and the engine advances virtual time
// window by window between checks.
//
// The step rule is the capped Bellman–Ford variant: any hop count reaching
// n is reported as +Inf. Without the cap a partition never quiesces
// (count-to-infinity); with it the process reaches the same fixpoint the
// distvec-bfs-agreement invariant expects (+Inf exactly on nodes the
// destination cannot reach).
type DistVecHealEngine struct {
	x    *Executor[float64]
	dest int
	n    int
}

var _ heal.Engine = (*DistVecHealEngine)(nil)

// NewDistVecHealEngine builds the engine over g and settles it to its
// initial fixpoint so supervision starts from a correct labeling.
func NewDistVecHealEngine(g *graph.Graph, dest int, cfg Config) (*DistVecHealEngine, error) {
	n := g.N()
	if dest < 0 || dest >= n {
		return nil, fmt.Errorf("async: destination %d out of range [0,%d)", dest, n)
	}
	x, err := NewExecutor(g,
		func(v int) float64 {
			if v == dest {
				return 0
			}
			return math.Inf(1)
		},
		func(v int, self float64, nbrs []float64) (float64, bool) {
			if v == dest {
				return 0, false
			}
			best := math.Inf(1)
			for _, d := range nbrs {
				if d+1 < best {
					best = d + 1
				}
			}
			if best >= float64(n) {
				best = math.Inf(1)
			}
			return best, best != self
		}, sim.Schedule{}, cfg)
	if err != nil {
		return nil, err
	}
	e := &DistVecHealEngine{x: x, dest: dest, n: n}
	if _, ok := x.settle(4*n + 8); !ok {
		return nil, fmt.Errorf("async: initial distance-vector convergence did not settle")
	}
	x.resetChanged()
	return e, nil
}

func (e *DistVecHealEngine) Name() string { return "distvec-async" }

// Live returns the current support topology (read-only to callers).
func (e *DistVecHealEngine) Live() *graph.Graph { return e.x.Live() }

// Dist returns the current distance labels.
func (e *DistVecHealEngine) Dist() []float64 { return e.x.States() }

// ExecutorStats exposes the underlying transport accounting.
func (e *DistVecHealEngine) ExecutorStats() Stats { return e.x.stats }

// Apply notifies the executor of one event at the current virtual time: an
// edge event the supervisor already applied to Live() refreezes the
// executor's view; crash, skip and drop faults are injected here.
func (e *DistVecHealEngine) Apply(ev sim.Event) (dirty []int, applied bool) {
	return e.x.applyEventNow(ev)
}

// CheckLocal settles in-flight traffic (bounded), then verifies the
// Bellman–Ford fixpoint equation at the dirtied nodes and their neighbors.
// At passivity every view equals its sender's state (zero ack deficit), so
// the check is exact; if the settle bound is hit mid-flight a transient
// disagreement may be reported, and the supervisor's repair–verify cycle
// absorbs it.
func (e *DistVecHealEngine) CheckLocal(dirty []int) []sim.Violation {
	e.x.settle(4*e.n + 8)
	seen := map[int]bool{}
	var frontier []int
	add := func(v int) {
		if v >= 0 && v < e.n && !seen[v] {
			seen[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, v := range dirty {
		add(v)
		e.x.live.EachNeighbor(v, func(w int, _ float64) { add(w) })
	}
	var out []sim.Violation
	for _, v := range frontier {
		if viol, bad := e.checkNode(v); bad {
			out = append(out, viol)
		}
	}
	return out
}

// checkNode evaluates the fixpoint equation at v against the live
// neighborhood's current states.
func (e *DistVecHealEngine) checkNode(v int) (sim.Violation, bool) {
	got := e.x.state[v]
	want := e.ruleAt(v)
	if got == want || (math.IsInf(got, 1) && math.IsInf(want, 1)) {
		return sim.Violation{}, false
	}
	return sim.Violation{
		Invariant: "distvec-local",
		Node:      v,
		Edge:      [2]int{-1, -1},
		Detail:    fmt.Sprintf("label %v, fixpoint rule gives %v", got, want),
	}, true
}

func (e *DistVecHealEngine) ruleAt(v int) float64 {
	if v == e.dest {
		return 0
	}
	best := math.Inf(1)
	e.x.live.EachNeighbor(v, func(w int, _ float64) {
		if d := e.x.state[w] + 1; d < best {
			best = d
		}
	})
	if best >= float64(e.n) {
		best = math.Inf(1)
	}
	return best
}

// Repair poisons each violated node to +Inf (endpoint poisoning: the
// neighborhood re-derives the honest distance instead of trusting a stale
// one) and lets the message-driven relaxation settle under the budget.
func (e *DistVecHealEngine) Repair(viols []sim.Violation, b heal.Budget) heal.RepairOutcome {
	e.x.resetChanged()
	poisoned := map[int]bool{}
	for _, viol := range viols {
		v := viol.Node
		if v < 0 || v >= e.n || v == e.dest || poisoned[v] {
			continue
		}
		poisoned[v] = true
		e.x.patch(v, math.Inf(1))
	}
	// A poisoned node re-derives only when traffic reaches it; pull fresh
	// announcements from its neighbors so isolated poisonings still heal.
	for v := range poisoned {
		e.x.refresh(v)
	}
	budgetW := b.MaxRounds
	if budgetW <= 0 {
		budgetW = 4*e.n + 8
	}
	rounds, settled := e.x.settle(budgetW)
	touched := e.x.resetChanged()
	ok := settled && (b.MaxTouched <= 0 || len(touched) <= b.MaxTouched)
	return heal.RepairOutcome{Touched: touched, Rounds: rounds, OK: ok}
}

// Recompute resets every label to its init value and re-converges from
// scratch — the escalation path.
func (e *DistVecHealEngine) Recompute() (int, error) {
	for v := 0; v < e.n; v++ {
		if v == e.dest {
			e.x.patch(v, 0)
			continue
		}
		e.x.patch(v, math.Inf(1))
	}
	rounds, settled := e.x.settle(4*e.n + 8)
	if !settled {
		return rounds, fmt.Errorf("async: full recompute did not settle in %d windows", 4*e.n+8)
	}
	e.x.resetChanged()
	return rounds, nil
}

// Snapshot settles outstanding traffic, then assembles the World the
// invariant registry judges. Settling first keeps the final sweep honest:
// a mid-flight view is not a violation of the labeling, only of the
// snapshot's timing.
func (e *DistVecHealEngine) Snapshot() *sim.World {
	_, settled := e.x.settle(4*e.n + 8)
	return &sim.World{
		Scenario:  "distvec",
		Graph:     e.x.Live(),
		Stats:     e.x.syncStats(),
		Trace:     e.x.Trace(),
		LastFault: e.x.LastFaultRound(),
		Dist:      &sim.DistWorld{Dest: e.dest, Dist: e.x.States(), Stable: settled},
	}
}
