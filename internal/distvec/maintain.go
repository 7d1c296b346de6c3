package distvec

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"

	"structura/internal/graph"
)

// Maintainer is the maintenance face of the distance-vector labels: instead
// of recomputing the table from scratch after every topology change, it
// keeps hop counts toward one destination consistent under edge churn using
// the classic count-to-infinity mitigations — split horizon with poisoned
// reverse (a node never adopts a route through a neighbor that routes
// through it) and a hop-count ceiling at n (anything counting past every
// possible simple path is declared unreachable). Repairs spread as frontier
// relaxation sweeps from the disturbed nodes, under an explicit budget, so
// a supervisor can measure locality and escalate to a BFS rebuild when a
// partition makes the vector count toward the ceiling.
//
// The maintainer reads the caller's graph and never mutates it: the owner
// applies each topology change and then reports removals via EdgeRemoved.
type Maintainer struct {
	g    *graph.Graph
	dest int
	dist []float64 // hop estimate; +Inf = unreachable
	next []int     // next hop toward dest; -1 at dest and when unreachable

	// Scratch node sets of the repair loop and the detector, reused across
	// calls: frontier and touched belong to Repair, seen to Inconsistent.
	frontier, touched, seen graph.Marks
}

// NewMaintainer builds the maintainer over g (retained, read-only) with
// labels initialized to true BFS hop counts.
func NewMaintainer(g *graph.Graph, dest int) (*Maintainer, error) {
	if g.Directed() {
		return nil, errors.New("distvec: maintainer needs an undirected support")
	}
	if dest < 0 || dest >= g.N() {
		return nil, errors.New("distvec: destination out of range")
	}
	m := &Maintainer{
		g:    g,
		dest: dest,
		dist: make([]float64, g.N()),
		next: make([]int, g.N()),
	}
	m.sizeMarks()
	m.Recompute()
	return m, nil
}

// NewMaintainerFromLabels builds the maintainer over g (retained,
// read-only) with the labels seeded from a recovered epoch instead of a BFS rebuild — the
// warm-start path, where durable (dist, next) arrays are already consistent
// with g up to a known dirty set the caller heals afterwards. The arrays
// are copied; only their lengths are validated here (consistency is the
// supervisor's job: run CheckLocal over the dirty set, or Sweep for a full
// audit).
func NewMaintainerFromLabels(g *graph.Graph, dest int, dist []float64, next []int) (*Maintainer, error) {
	if g.Directed() {
		return nil, errors.New("distvec: maintainer needs an undirected support")
	}
	if dest < 0 || dest >= g.N() {
		return nil, errors.New("distvec: destination out of range")
	}
	if len(dist) != g.N() || len(next) != g.N() {
		return nil, errors.New("distvec: label arrays do not match the graph")
	}
	m := &Maintainer{
		g:    g,
		dest: dest,
		dist: append([]float64(nil), dist...),
		next: append([]int(nil), next...),
	}
	m.sizeMarks()
	return m, nil
}

// sizeMarks allocates the scratch sets up front, off the repair path.
func (m *Maintainer) sizeMarks() {
	for _, s := range []*graph.Marks{&m.frontier, &m.touched, &m.seen} {
		s.Reset(m.g.N())
	}
}

// Dest returns the destination node.
func (m *Maintainer) Dest() int { return m.dest }

// Dist returns a copy of the current hop labels.
func (m *Maintainer) Dist() []float64 { return append([]float64(nil), m.dist...) }

// NextHops returns a copy of the current next-hop labels: next[v] is the
// neighbor v forwards through toward the destination, -1 at the destination
// and for unreachable nodes. Paired with Dist these are the route labels a
// serving layer publishes per epoch.
func (m *Maintainer) NextHops() []int { return append([]int(nil), m.next...) }

// Route returns node v's current label and next hop, without copying.
func (m *Maintainer) Route(v int) (float64, int) { return m.dist[v], m.next[v] }

// EdgeRemoved reports that support edge (u,v) is gone from the graph. Each
// endpoint that was routing over it is poisoned on the spot — label +Inf,
// no next hop — so its stale finite estimate cannot keep circulating while
// the repair frontier catches up (the poisoned-reverse discipline's first
// move). The check runs against the graph as it stands now, so a notice for
// an edge that is present again (removed and re-added within one batch)
// poisons nothing. Labels are otherwise left alone: detection and repair
// are the supervisor's moves, seeded from u and v.
//
// It reports which endpoints it poisoned. A poisoned endpoint's neighbors
// read its changed label, so besides the endpoints they are the only nodes
// whose detector verdict the removal can move.
func (m *Maintainer) EdgeRemoved(u, v int) (uPoisoned, vPoisoned bool) {
	if u < 0 || u >= m.g.N() || v < 0 || v >= m.g.N() || m.g.HasEdge(u, v) {
		return false, false
	}
	if m.next[u] == v {
		m.dist[u] = math.Inf(1)
		m.next[u] = -1
		uPoisoned = true
	}
	if m.next[v] == u {
		m.dist[v] = math.Inf(1)
		m.next[v] = -1
		vPoisoned = true
	}
	return uPoisoned, vPoisoned
}

// offer is the label neighbor w advertises to x under split horizon with
// poisoned reverse: its own estimate, except poisoned to +Inf when w's
// route goes through x.
func (m *Maintainer) offer(w, x int) float64 {
	if m.next[w] == x {
		return math.Inf(1)
	}
	return m.dist[w]
}

// rule computes x's (label, next hop) pair from its neighbors' poisoned
// advertisements under the hop ceiling — what settle assigns and
// Inconsistent checks against. Among equally close neighbors the lowest
// ID wins, so the fixed point is a function of the edge set alone: a graph
// rebuilt from its edges (a snapshot, a reopen) lists a row's neighbors in
// another order, and a row-order tie-break would leave the recovered labels
// failing this rule.
func (m *Maintainer) rule(x int) (float64, int) {
	if x == m.dest {
		return 0, -1
	}
	best, hop := math.Inf(1), -1
	m.g.EachNeighbor(x, func(w int, _ float64) {
		if d := m.offer(w, x) + 1; d < best || (d == best && hop >= 0 && w < hop) {
			best, hop = d, w
		}
	})
	if best >= float64(m.g.N()) {
		return math.Inf(1), -1 // counted past every simple path
	}
	return best, hop
}

// settle recomputes x's label by rule and reports whether it changed.
func (m *Maintainer) settle(x int) bool {
	best, hop := m.rule(x)
	if best == m.dist[x] && hop == m.next[x] {
		return false
	}
	m.dist[x], m.next[x] = best, hop
	return true
}

// Inconsistent returns, among the given nodes, those whose (label, next
// hop) pair disagrees with rule, sorted — the local detector. It judges
// exactly the nodes given (out-of-range ones and repeats are skipped):
// the caller names every node whose rule may read something that changed,
// which for an edge removal includes the neighbors of each endpoint
// EdgeRemoved poisoned. Checking the next hop, not just the label, is what
// makes the detector complete: a node can hold a correct label while its
// stale next hop still points into a poisoned region, and that stale
// pointer poisons the node's own advertisement back into the region,
// hiding a real route behind a value-only check. At the (dist, next) fixed
// point every hop chain descends by one to the destination, so labels
// equal BFS hop counts and local consistency everywhere is global
// correctness.
func (m *Maintainer) Inconsistent(nodes []int) []int {
	var out []int
	m.seen.Reset(m.g.N())
	for _, x := range nodes {
		if x >= 0 && x < m.g.N() && m.seen.Add(x) && !m.consistent(x) {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// consistent reports whether x's (label, next hop) pair agrees with rule.
func (m *Maintainer) consistent(x int) bool {
	best, hop := m.rule(x)
	return best == m.dist[x] && hop == m.next[x]
}

// RepairResult is what one Repair call did.
type RepairResult struct {
	Touched []int // distinct nodes settled, sorted
	Moved   []int // distinct nodes whose label settling changed, sorted
	Rounds  int   // relaxation sweeps run
	OK      bool  // the frontier drained within the budget
}

// Repair runs frontier relaxation sweeps from the seed nodes: every sweep
// settles the current frontier synchronously and enqueues the neighbors of
// every node whose label changed. It stops when the frontier drains (OK),
// or when it would exceed maxRounds sweeps or maxTouched distinct nodes
// (not OK — the caller escalates to Recompute). A partition drives labels
// up toward the hop ceiling one sweep at a time, which is exactly the
// bounded count-to-infinity the budget converts into an escalation.
//
// Moved is what bounds the caller's verification: rule(x) reads only x's
// row and its neighbors' labels, so once the frontier drains, a node can
// disagree with rule only if it was a seed or neighbors a moved node.
//
// ctx is checked before every sweep (mirroring runtime.WithContext): a
// repair interrupted mid-cascade stops where it is and returns ctx.Err()
// with OK == false. A cancelled repair is NOT a budget exhaustion — the
// caller should abort (e.g. a server shutting down must not escalate to a
// full recompute it would also have to abandon), which is why the error is
// surfaced separately from OK. A nil ctx disables the checks.
func (m *Maintainer) Repair(ctx context.Context, seeds []int, maxRounds, maxTouched int) (RepairResult, error) {
	n := m.g.N()
	var res RepairResult
	var frontier []int
	m.frontier.Reset(n)
	push := func(x int, _ float64) {
		if x >= 0 && x < n && m.frontier.Add(x) {
			frontier = append(frontier, x)
		}
	}
	for _, s := range seeds {
		push(s, 0)
	}
	m.touched.Reset(n)
	done := func(ok bool, err error) (RepairResult, error) {
		sort.Ints(res.Touched)
		sort.Ints(res.Moved)
		res.Moved = slices.Compact(res.Moved) // a node may move more than once
		res.OK = ok
		return res, err
	}
	for len(frontier) > 0 {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return done(false, ctx.Err())
			default:
			}
		}
		if maxRounds > 0 && res.Rounds >= maxRounds {
			return done(false, nil)
		}
		res.Rounds++
		cur := frontier
		frontier = nil
		m.frontier.Reset(n)
		sort.Ints(cur) // deterministic sweep order
		for _, x := range cur {
			if !m.touched.Has(x) {
				if maxTouched > 0 && len(res.Touched) >= maxTouched {
					return done(false, nil)
				}
				m.touched.Add(x)
				res.Touched = append(res.Touched, x)
			}
			if m.settle(x) {
				res.Moved = append(res.Moved, x)
				push(x, 0) // re-check against next sweep's neighborhood
				m.g.EachNeighbor(x, push)
			}
		}
	}
	return done(true, nil)
}

// Recompute rebuilds the labels from a BFS — the full-recompute escalation.
// Its cost, charged as one sweep per BFS level, is what localized repair is
// measured against. Next hops are assigned the way rule breaks ties (the
// lowest-ID one-level-closer neighbor), not the BFS discovery parent: the
// two can disagree, and a recomputed table whose hops fail the engine's own
// local detector would re-trigger repair on perfectly good distances.
func (m *Maintainer) Recompute() int {
	n := m.g.N()
	for v := 0; v < n; v++ {
		m.dist[v] = math.Inf(1)
		m.next[v] = -1
	}
	m.dist[m.dest] = 0
	queue := []int{m.dest}
	depth := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		m.g.EachNeighbor(v, func(w int, _ float64) {
			if math.IsInf(m.dist[w], 1) {
				m.dist[w] = m.dist[v] + 1
				queue = append(queue, w)
			}
		})
		if d := int(m.dist[v]); d > depth {
			depth = d
		}
	}
	for v := 0; v < n; v++ {
		if v == m.dest || math.IsInf(m.dist[v], 1) {
			continue
		}
		hop := -1
		m.g.EachNeighbor(v, func(w int, _ float64) {
			if m.dist[w] == m.dist[v]-1 && (hop == -1 || w < hop) {
				hop = w
			}
		})
		m.next[v] = hop
	}
	return depth + 1
}
