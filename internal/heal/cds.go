package heal

import (
	"sort"

	"structura/internal/graph"
	"structura/internal/labeling"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// cdsEngine maintains a connected dominating set (the paper's virtual
// backbone) under churn. Edge removals are the only threat: losing an edge
// can strand a node's last dominator or split the backbone's induced
// subgraph. Localized repair works in three moves — add a dominator for
// each stranded node, stitch detached backbone components back together
// with gateway nodes along shortest connecting paths, then re-prune the
// touched region (a member is dropped whenever the set stays a CDS without
// it, mirroring the pruning pass of the MIS→CDS construction). When churn
// disconnects the support itself, no CDS exists; repair and recompute both
// fail and the violation stands, by design.
type cdsEngine struct {
	g       *graph.Graph
	prio    labeling.Priority
	members map[int]bool
}

func newCDSEngine(seed uint64) (*cdsEngine, error) {
	_ = seed // one fixed grid, matching the sim cds scenario
	return newCDSEngineOver(sim.CDSGrid())
}

func newCDSEngineOver(g *graph.Graph) (*cdsEngine, error) {
	prio := labeling.PriorityByID(g.N())
	cds, _, err := labeling.CDSFromMIS(g, prio)
	if err != nil {
		return nil, err
	}
	return &cdsEngine{g: g, prio: prio, members: labeling.SetOf(cds)}, nil
}

// NewCDSEngineOver builds a supervised CDS engine over the caller's
// topology (retained and only read), for callers maintaining the backbone
// on their own graph: the serving layer's ingest path. Construction fails on a disconnected graph
// (no CDS exists), so serving layers treat the backbone as optional.
// CDSMembers exposes the membership an epoch publishes.
func NewCDSEngineOver(g *graph.Graph) (Engine, error) {
	return newCDSEngineOver(g)
}

// CDSMembers returns the current backbone members, sorted.
func (e *cdsEngine) CDSMembers() []int {
	return sortedSet(e.members)
}

// InCDS reports node v's current backbone membership.
func (e *cdsEngine) InCDS(v int) bool { return e.members[v] }

func (e *cdsEngine) Name() string       { return "cds" }
func (e *cdsEngine) Live() *graph.Graph { return e.g }

func (e *cdsEngine) Apply(ev sim.Event) ([]int, bool) { return edgeEndpoints(ev) }

func (e *cdsEngine) dominated(v int) bool {
	if e.members[v] {
		return true
	}
	ok := false
	e.g.EachNeighbor(v, func(u int, _ float64) {
		if e.members[u] {
			ok = true
		}
	})
	return ok
}

// components partitions the members into connected components of the
// member-induced subgraph, each sorted, ordered by smallest member.
func (e *cdsEngine) components() [][]int {
	visited := map[int]bool{}
	var comps [][]int
	ids := sortedSet(e.members)
	for _, start := range ids {
		if visited[start] {
			continue
		}
		comp := []int{start}
		visited[start] = true
		for head := 0; head < len(comp); head++ {
			e.g.EachNeighbor(comp[head], func(u int, _ float64) {
				if e.members[u] && !visited[u] {
					visited[u] = true
					comp = append(comp, u)
				}
			})
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

func (e *cdsEngine) CheckLocal(dirty []int) []sim.Violation {
	if len(dirty) == 0 {
		return nil
	}
	var out []sim.Violation
	seen := map[int]bool{}
	for _, v := range dirty {
		if v < 0 || v >= e.g.N() || seen[v] {
			continue
		}
		seen[v] = true
		if !e.dominated(v) {
			out = append(out, sim.Violation{
				Invariant: "cds-domination", Node: v, Edge: [2]int{-1, -1},
				Detail: "no CDS neighbor",
			})
		}
	}
	// An edge removal between two members is the only local event that can
	// split the backbone; membership did not change, so checking once per
	// dirtied batch suffices.
	if comps := e.components(); len(comps) > 1 {
		for _, comp := range comps[1:] {
			out = append(out, sim.Violation{
				Invariant: "cds-connectivity", Node: comp[0], Edge: [2]int{-1, -1},
				Detail: "backbone component detached",
			})
		}
	}
	return out
}

func (e *cdsEngine) Repair(viols []sim.Violation, b Budget) RepairOutcome {
	touched := map[int]bool{}
	mods := 0
	overBudget := func() bool { return b.MaxTouched > 0 && len(touched) > b.MaxTouched }

	// Move 1: every stranded node gets its highest-priority neighbor
	// promoted into the set (re-checked live — an earlier promotion may
	// already cover it). Each move polls the budget context so a shutdown
	// interrupts the repair mid-cascade (the Supervisor re-checks its own
	// context and aborts instead of escalating).
	for _, viol := range viols {
		if b.Err() != nil {
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
		if viol.Invariant != "cds-domination" || viol.Node < 0 {
			continue
		}
		v := viol.Node
		if e.dominated(v) {
			continue
		}
		best := -1
		e.g.EachNeighbor(v, func(u int, _ float64) {
			if best == -1 || e.prio[u] > e.prio[best] {
				best = u
			}
		})
		if best == -1 {
			// Isolated non-member: no CDS over this topology exists.
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
		e.members[best] = true
		touched[best] = true
		touched[v] = true
		mods++
		if overBudget() {
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
	}

	// Move 2: stitch detached backbone components to the primary one with
	// gateway nodes along a shortest connecting path.
	for {
		if b.Err() != nil {
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
		comps := e.components()
		if len(comps) <= 1 {
			break
		}
		path := e.connectingPath(comps[0])
		if path == nil {
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
		for _, w := range path {
			if !e.members[w] {
				e.members[w] = true
				mods++
			}
			touched[w] = true
		}
		if overBudget() {
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
	}

	// Move 3: re-prune the affected region, lowest priority first — each
	// removal is verified against the full CDS property before it sticks.
	for _, v := range sortedByPriorityAsc(touched, e.prio) {
		if b.Err() != nil {
			return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: false}
		}
		if !e.members[v] {
			continue
		}
		delete(e.members, v)
		if labeling.IsCDS(e.g, e.members) {
			mods++
		} else {
			e.members[v] = true
		}
	}
	return RepairOutcome{Touched: sortedSet(touched), Rounds: mods, OK: true}
}

// connectingPath BFSes outward from the base backbone component through the
// whole support and returns the intermediate nodes of a shortest path to
// any other member, nil when no other member is reachable.
func (e *cdsEngine) connectingPath(base []int) []int {
	inBase := map[int]bool{}
	parent := make([]int, e.g.N())
	for i := range parent {
		parent[i] = -1
	}
	queue := []int{}
	for _, v := range base {
		inBase[v] = true
		parent[v] = v
		queue = append(queue, v)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		hit := -1
		e.g.EachNeighbor(v, func(u int, _ float64) {
			if parent[u] != -1 {
				return
			}
			if e.members[u] && !inBase[u] && hit == -1 {
				parent[u] = v
				hit = u
				return
			}
			if !e.members[u] {
				parent[u] = v
				queue = append(queue, u)
			}
		})
		if hit == -1 {
			continue
		}
		var path []int
		for w := parent[hit]; !inBase[w]; w = parent[w] {
			path = append(path, w)
		}
		sort.Ints(path)
		return path
	}
	return nil
}

// Recompute rebuilds the backbone with the MIS→CDS construction; its cost
// is charged as n rounds, the distributed construction's bound.
func (e *cdsEngine) Recompute() (int, error) {
	cds, _, err := labeling.CDSFromMIS(e.g, e.prio)
	if err != nil {
		return 0, err
	}
	e.members = labeling.SetOf(cds)
	return e.g.N(), nil
}

func (e *cdsEngine) Snapshot() *sim.World {
	return &sim.World{
		Scenario: "heal-cds",
		Graph:    e.g.Clone(),
		Stats:    runtime.Stats{Stable: true},
		CDS:      &sim.CDSWorld{Members: sortedSet(e.members)},
	}
}

func sortedSet(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func sortedByPriorityAsc(set map[int]bool, prio labeling.Priority) []int {
	out := sortedSet(set)
	sort.SliceStable(out, func(i, j int) bool { return prio[out[i]] < prio[out[j]] })
	return out
}
