package heal

import (
	"errors"
	"fmt"

	"structura/internal/graph"
	"structura/internal/reversal"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// reversalEngine supervises a full-reversal destination-oriented DAG. Sinks
// are the complete local symptom: a link removal can only un-orient its own
// endpoints (each lost one outgoing candidate), a link addition never
// creates a sink (heights orient it on arrival), and "no sinks" implies
// destination orientation outright — every maximal height-decreasing path
// must end at a node without outgoing links, which can only be the
// destination. Repair is the budgeted reversal cascade; escalation rebuilds
// heights from a BFS, which fails exactly when churn partitioned the
// support away from the destination.
type reversalEngine struct {
	g       *graph.Graph // live support
	net     *reversal.Network
	dest    int
	fails   int // link failures injected, for the count-bound invariant
	total   int // sink activations across all repairs
	perNode map[int]int
}

func newReversalEngine(seed uint64) (*reversalEngine, error) {
	g := sim.ReversalRing(seed)
	e := &reversalEngine{g: g, dest: 0, perNode: map[int]int{}}
	if err := e.rebuild(); err != nil {
		return nil, err
	}
	return e, nil
}

// rebuild re-derives heights from BFS hop counts on the live support.
func (e *reversalEngine) rebuild() error {
	dist, _, err := e.g.BFS(e.dest)
	if err != nil {
		return err
	}
	alphas := make([]int, e.g.N())
	for v, d := range dist {
		if d < 0 {
			if e.g.Degree(v) > 0 {
				return fmt.Errorf("heal: node %d partitioned from destination %d", v, e.dest)
			}
			d = 1 // isolated node: any positive height keeps dest the minimum
		}
		alphas[v] = d
	}
	net, err := reversal.NewNetwork(e.g, alphas, e.dest, reversal.Full)
	if err != nil {
		return err
	}
	e.net = net
	return nil
}

func (e *reversalEngine) Name() string       { return "reversal" }
func (e *reversalEngine) Live() *graph.Graph { return e.g }

// Apply brings the link-orientation state, which keeps its own copy of the
// links it orients, in line with the live support for the event's link.
func (e *reversalEngine) Apply(ev sim.Event) ([]int, bool) {
	u, v := ev.U, ev.V
	linked := e.net.PointsTo(u, v) || e.net.PointsTo(v, u)
	switch {
	case ev.Op == sim.OpAddEdge && !linked && e.g.HasEdge(u, v):
		if err := e.net.AddLink(u, v); err != nil {
			panic("heal: reversal network diverged from the live support: " + err.Error())
		}
	case ev.Op == sim.OpRemoveEdge && linked && !e.g.HasEdge(u, v):
		e.net.RemoveLink(u, v)
		e.fails++
	}
	return edgeEndpoints(ev)
}

func (e *reversalEngine) CheckLocal(dirty []int) []sim.Violation {
	var out []sim.Violation
	seen := map[int]bool{}
	for _, v := range dirty {
		if v < 0 || v >= e.g.N() || seen[v] {
			continue
		}
		seen[v] = true
		if e.net.IsSink(v) {
			out = append(out, sim.Violation{
				Invariant: "reversal-destination-oriented", Node: v, Edge: [2]int{-1, -1},
				Detail: "sink: every incident link points in",
			})
		}
	}
	return out
}

func (e *reversalEngine) Repair(viols []sim.Violation, b Budget) RepairOutcome {
	// A sink cut off from the destination reverses forever; spinning the
	// cascade would only burn the reversal-count budget. Escalate straight
	// away — the rebuild names the partition precisely.
	dist, _, err := e.g.BFS(e.dest)
	if err != nil {
		return RepairOutcome{OK: false}
	}
	for _, v := range violationNodes(viols) {
		if v < len(dist) && dist[v] < 0 {
			return RepairOutcome{OK: false}
		}
	}
	// Full reversal settles a local disturbance within n rounds when the
	// destination is reachable; a tighter caller budget wins, but anything
	// looser is clamped so one repair can never exceed the per-failure
	// reversal-count bound of n per node.
	maxRounds := e.g.N()
	if b.MaxRounds > 0 && b.MaxRounds < maxRounds {
		maxRounds = b.MaxRounds
	}
	st, touched := e.net.StabilizeBudget(maxRounds, b.MaxTouched)
	e.total += st.NodeReversals
	for v, c := range st.PerNode {
		e.perNode[v] += c
	}
	return RepairOutcome{Touched: touched, Rounds: st.Rounds, OK: st.Converged}
}

func (e *reversalEngine) Recompute() (int, error) {
	if err := e.rebuild(); err != nil {
		return 0, errors.Join(errors.New("heal: reversal recompute failed"), err)
	}
	depth := 0
	dist, _, _ := e.g.BFS(e.dest)
	for _, d := range dist {
		if d > depth {
			depth = d
		}
	}
	return depth + 1, nil
}

func (e *reversalEngine) Snapshot() *sim.World {
	perNode := make(map[int]int, len(e.perNode))
	for v, c := range e.perNode {
		perNode[v] = c
	}
	sinks := e.net.Sinks()
	return &sim.World{
		Scenario: "heal-reversal",
		Graph:    e.g.Clone(),
		Stats:    runtime.Stats{Stable: true},
		Rev: &sim.RevWorld{
			N:        e.g.N(),
			Dest:     e.dest,
			Mode:     "full",
			Support:  e.g.Clone(),
			PointsTo: e.net.PointsTo,
			Sinks:    sinks,
			Fails:    e.fails,
			Total:    e.total,
			PerNode:  perNode,
			Stable:   len(sinks) == 0,
		},
	}
}
