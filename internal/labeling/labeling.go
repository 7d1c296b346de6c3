// Package labeling implements the static labeling schemes of §IV-A: the
// Wu–Dai localized connected-dominating-set marking with pruning [22], the
// three-color distributed maximal-independent-set computation, and the
// one-round neighbor-designated dominating set — plus validity checkers and
// the Fig. 8 example on which the paper walks through all three.
package labeling

import (
	"errors"
	"fmt"
	"sort"

	"structura/internal/graph"
	"structura/internal/runtime"
)

// Color is a node label in the paper's three-color scheme.
type Color int

// Colors used by the labeling processes.
const (
	White Color = iota
	Gray
	Black
)

// Priority orders nodes; higher values win local competitions. Values must
// be distinct (the paper's distinct-ID symmetry breaking).
type Priority []float64

// PriorityByID gives lower IDs higher priority — the p(A) > p(B) > ...
// convention used in the paper's examples.
func PriorityByID(n int) Priority {
	p := make(Priority, n)
	for i := range p {
		p[i] = float64(n - i)
	}
	return p
}

func (p Priority) validate(n int) error {
	if len(p) != n {
		return fmt.Errorf("labeling: %d priorities for %d nodes", len(p), n)
	}
	seen := make(map[float64]bool, n)
	for _, v := range p {
		if seen[v] {
			return errors.New("labeling: priorities must be distinct")
		}
		seen[v] = true
	}
	return nil
}

// MarkCDS runs the Wu–Dai marking process: a node colors itself Black iff
// it has two neighbors that are not connected to each other. All black
// nodes form a CDS of a connected graph (with at least one such node).
// This is a localized rule using 2-hop information only.
func MarkCDS(g *graph.Graph) []Color {
	n := g.N()
	c := g.Freeze()
	colors := make([]Color, n)
	for v := 0; v < n; v++ {
		nbrs := c.Neighbors(v)
		found := false
		for i := 0; i < len(nbrs) && !found; i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if !c.HasEdge(int(nbrs[i]), int(nbrs[j])) {
					found = true
					break
				}
			}
		}
		if found {
			colors[v] = Black
		}
	}
	return colors
}

// PruneCDS applies the generalized Wu–Dai pruning (Rule k) the paper
// describes: a black node v reverts to White if its open neighborhood is
// covered by a *connected set* of higher-priority black nodes drawn from
// v's 2-hop neighborhood. Conditions are evaluated against the original
// marking, so the result is order-independent; priorities guarantee that
// simultaneous pruning preserves the CDS property.
func PruneCDS(g *graph.Graph, colors []Color, prio Priority) ([]Color, error) {
	n := g.N()
	if len(colors) != n {
		return nil, errors.New("labeling: colors length mismatch")
	}
	if err := prio.validate(n); err != nil {
		return nil, err
	}
	c := g.Freeze()
	out := append([]Color(nil), colors...)
	for v := 0; v < n; v++ {
		if colors[v] != Black {
			continue
		}
		// Candidate coverers: higher-priority black nodes within 2 hops.
		twoHop := make(map[int]bool)
		for _, u := range c.Neighbors(v) {
			if int(u) != v {
				twoHop[int(u)] = true
			}
			for _, w := range c.Neighbors(int(u)) {
				if int(w) != v {
					twoHop[int(w)] = true
				}
			}
		}
		var cand []int
		for u := range twoHop {
			if colors[u] == Black && prio[u] > prio[v] {
				cand = append(cand, u)
			}
		}
		if len(cand) == 0 {
			continue
		}
		// Connected components of the induced candidate subgraph; a single
		// component must cover N(v).
		candSet := make(map[int]bool, len(cand))
		for _, u := range cand {
			candSet[u] = true
		}
		visited := make(map[int]bool, len(cand))
		pruned := false
		for _, start := range cand {
			if visited[start] || pruned {
				continue
			}
			comp := []int{start}
			visited[start] = true
			for qi := 0; qi < len(comp); qi++ {
				for _, w := range c.Neighbors(comp[qi]) {
					if candSet[int(w)] && !visited[int(w)] {
						visited[int(w)] = true
						comp = append(comp, int(w))
					}
				}
			}
			cover := make(map[int]bool, 4*len(comp))
			for _, u := range comp {
				cover[u] = true
				for _, w := range c.Neighbors(u) {
					cover[int(w)] = true
				}
			}
			ok := true
			for _, w := range c.Neighbors(v) {
				if !cover[int(w)] {
					ok = false
					break
				}
			}
			if ok {
				pruned = true
			}
		}
		if pruned {
			out[v] = White
		}
	}
	return out, nil
}

// MISResult reports a distributed MIS computation.
type MISResult struct {
	Colors []Color
	Rounds int
}

// ErrUnstable reports a kernel run that exhausted its round budget without
// quiescing.
//
// Unstable-return contract (shared with distvec.ErrUnstable and
// hypercube.ErrUnstable): the accompanying result is non-nil and carries
// the partial labels as of the last executed round, so fault-injection
// harnesses can inspect the stale state instead of losing it.
var ErrUnstable = errors.New("labeling: MIS did not stabilize")

// MISState is one node's state in DistributedMIS's election: its color and
// its fixed priority.
type MISState struct {
	Color Color
	Prio  float64
}

// MISRule returns DistributedMIS's round rule for any executor: every node
// starts White with its priority; per round a Black neighbor retires a
// White node to Gray, and a White node that is the priority maximum among
// its White neighbors turns Black.
func MISRule(prio Priority) (init func(v int) MISState, step func(v int, self MISState, nbrs []MISState) (MISState, bool)) {
	init = func(v int) MISState { return MISState{Color: White, Prio: prio[v]} }
	return init, misStep
}

func misStep(v int, self MISState, nbrs []MISState) (MISState, bool) {
	if self.Color != White {
		return self, false
	}
	// Gray takes precedence: a black neighbor retires this node.
	for _, nb := range nbrs {
		if nb.Color == Black {
			self.Color = Gray
			return self, true
		}
	}
	localMax := true
	for _, nb := range nbrs {
		if nb.Color == White && nb.Prio > self.Prio {
			localMax = false
			break
		}
	}
	if localMax {
		self.Color = Black
		return self, true
	}
	return self, false
}

// DistributedMIS runs the paper's three-color clusterhead election: per
// round, every White node that is the local priority maximum among its
// White neighbors turns Black; White neighbors of Black nodes turn Gray.
// With random priorities this takes O(log n) rounds with high probability.
// Extra kernel options (observers, parallelism) are passed through to
// runtime.Run.
func DistributedMIS(g *graph.Graph, prio Priority, opts ...runtime.Option) (MISResult, error) {
	n := g.N()
	if err := prio.validate(n); err != nil {
		return MISResult{}, err
	}
	init, step := MISRule(prio)
	states, stats, err := runtime.Run(g, init, step,
		append([]runtime.Option{runtime.WithMaxRounds(4*n + 4)}, opts...)...)
	if err != nil {
		return MISResult{}, err
	}
	colors := make([]Color, n)
	for v, s := range states {
		colors[v] = s.Color
	}
	if !stats.Stable {
		// Return the partial labels with the error: fault-injection
		// harnesses inspect them to name the violated invariant.
		return MISResult{Colors: colors, Rounds: stats.Rounds}, ErrUnstable
	}
	// The final no-change round does not count as work.
	return MISResult{Colors: colors, Rounds: stats.Rounds - 1}, nil
}

// NeighborDesignatedDS runs the one-round neighbor-designated election:
// every node selects the highest-priority node of its closed neighborhood;
// every selected node turns Black. The black nodes form a dominating set
// (not necessarily connected or independent).
func NeighborDesignatedDS(g *graph.Graph, prio Priority) ([]Color, error) {
	n := g.N()
	if err := prio.validate(n); err != nil {
		return nil, err
	}
	colors := make([]Color, n)
	for v := 0; v < n; v++ {
		best := v
		g.EachNeighbor(v, func(w int, _ float64) {
			if prio[w] > prio[best] {
				best = w
			}
		})
		colors[best] = Black
	}
	return colors, nil
}

// Members returns the sorted IDs holding the given color.
func Members(colors []Color, c Color) []int {
	var out []int
	for v, cv := range colors {
		if cv == c {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// IsDominatingSet reports whether set dominates g: every node outside has a
// neighbor inside.
func IsDominatingSet(g *graph.Graph, set map[int]bool) bool {
	for v := 0; v < g.N(); v++ {
		if set[v] {
			continue
		}
		dominated := false
		g.EachNeighbor(v, func(w int, _ float64) {
			if set[w] {
				dominated = true
			}
		})
		if !dominated {
			return false
		}
	}
	return true
}

// IsConnectedSet reports whether the induced subgraph on set is connected
// (vacuously true for size <= 1).
func IsConnectedSet(g *graph.Graph, set map[int]bool) bool {
	sub, _ := g.Subgraph(set)
	return sub.Connected()
}

// IsCDS reports whether set is a connected dominating set.
func IsCDS(g *graph.Graph, set map[int]bool) bool {
	return IsDominatingSet(g, set) && IsConnectedSet(g, set)
}

// IsIndependent reports whether no two members of set are adjacent.
func IsIndependent(g *graph.Graph, set map[int]bool) bool {
	for v := range set {
		adjacent := false
		g.EachNeighbor(v, func(w int, _ float64) {
			if set[w] {
				adjacent = true
			}
		})
		if adjacent {
			return false
		}
	}
	return true
}

// IsMIS reports whether set is a maximal independent set: independent, and
// every non-member has a member neighbor (equivalently, independent +
// dominating).
func IsMIS(g *graph.Graph, set map[int]bool) bool {
	return IsIndependent(g, set) && IsDominatingSet(g, set)
}

// SetOf converts a member list into a set.
func SetOf(members []int) map[int]bool {
	out := make(map[int]bool, len(members))
	for _, v := range members {
		out[v] = true
	}
	return out
}

// Fig8Graph returns the static-labeling example of the paper's Fig. 8:
// nodes A=0..F=5 with edges A-C, A-D, C-D, B-D, B-F, C-E, C-F, D-E, E-F.
// On this graph, with p(A) > p(B) > ... priorities, the paper's three
// walkthroughs hold exactly: marking blackens everyone but A; pruning
// leaves the CDS {B, C, D}; the MIS election picks A and B in round one
// and ends with {A, B, E}; and neighbor designation selects {A, B, C},
// which is a DS but neither connected nor independent.
func Fig8Graph() *graph.Graph {
	g := graph.New(6)
	edges := [][2]int{
		{0, 2}, {0, 3}, {2, 3}, {1, 3}, {1, 5}, {2, 4}, {2, 5}, {3, 4}, {4, 5},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err) // unreachable: constants are in range
		}
	}
	return g
}
