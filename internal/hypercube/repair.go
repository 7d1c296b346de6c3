package hypercube

import (
	"sort"

	"structura/internal/graph"
)

// This file generalizes the safety-level computation from the one-shot,
// monotone-from-the-top iteration of SafetyLevels to maintenance on a
// churned support: when edges appear or disappear, levels may legitimately
// rise as well as fall, and the invariant worth keeping is local
// consistency — every non-faulty node's level equals the footnote-3 rule
// evaluated on its current neighbors' levels. InconsistentLevels is the
// detector over a dirtied region, RelaxLevels the budgeted localized
// repair, and RecomputeLevels the from-the-top escalation whose
// convergence is guaranteed by monotonicity.

// levelOn evaluates the footnote-3 rule for node v on an arbitrary support.
func levelOn(g *graph.Graph, levels []int, dim, v int) int {
	var hist [maxDim]int
	g.EachNeighbor(v, func(w int, _ float64) {
		if l := levels[w]; l >= 0 && l < dim {
			hist[l]++
		}
	})
	return levelFromHist(&hist, dim)
}

// InconsistentLevels returns, among the candidate nodes, those whose level
// violates the rule: faulty nodes must sit at 0, non-faulty nodes at the
// footnote-3 value of their neighborhood. It judges exactly the candidates:
// an edge event changes only its endpoints' histograms, and a level move
// changes only its neighbors', so those are the nodes to pass.
func InconsistentLevels(g *graph.Graph, levels []int, faulty []bool, dim int, candidates []int) []int {
	var out []int
	seen := make(map[int]bool, len(candidates))
	for _, v := range candidates {
		if v < 0 || v >= g.N() || seen[v] {
			continue
		}
		seen[v] = true
		want := 0
		if !faulty[v] {
			want = levelOn(g, levels, dim, v)
		}
		if levels[v] != want {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// RelaxLevels repairs levels in place by frontier relaxation from the seed
// nodes: each sweep re-evaluates the frontier synchronously and enqueues
// the neighbors of every node whose level changed. Unlike the from-the-top
// computation, levels move in both directions here, so convergence is not
// guaranteed by monotonicity — the maxRounds / maxTouched budget bounds the
// attempt and ok == false tells the caller to escalate to RecomputeLevels.
func RelaxLevels(g *graph.Graph, levels []int, faulty []bool, dim int, seeds []int, maxRounds, maxTouched int) (touched []int, rounds int, ok bool) {
	frontier := make([]int, 0, len(seeds))
	inFrontier := make(map[int]bool, len(seeds))
	push := func(v int) {
		if v >= 0 && v < g.N() && !inFrontier[v] {
			inFrontier[v] = true
			frontier = append(frontier, v)
		}
	}
	for _, s := range seeds {
		push(s)
	}
	touchedSet := make(map[int]bool)
	for len(frontier) > 0 {
		if maxRounds > 0 && rounds >= maxRounds {
			return sortedLevelKeys(touchedSet), rounds, false
		}
		rounds++
		cur := frontier
		frontier = nil
		inFrontier = make(map[int]bool)
		sort.Ints(cur)
		// Synchronous sweep: evaluate every frontier node against the
		// pre-sweep levels, then commit, mirroring the kernel's semantics.
		next := make([]int, len(cur))
		for i, v := range cur {
			if !touchedSet[v] {
				if maxTouched > 0 && len(touchedSet) >= maxTouched {
					return sortedLevelKeys(touchedSet), rounds, false
				}
				touchedSet[v] = true
			}
			if faulty[v] {
				next[i] = 0
			} else {
				next[i] = levelOn(g, levels, dim, v)
			}
		}
		for i, v := range cur {
			if next[i] == levels[v] {
				continue
			}
			levels[v] = next[i]
			push(v)
			g.EachNeighbor(v, func(w int, _ float64) { push(w) })
		}
	}
	return sortedLevelKeys(touchedSet), rounds, true
}

// RecomputeLevels rebuilds the levels from the top on the live support:
// every non-faulty node restarts at dim and the rule is iterated to its
// fixed point. From the all-dim start the sequence is monotone
// non-increasing (the rule is monotone in each neighbor level), so the
// iteration always converges; the sweep count is returned as the
// full-recompute cost localized repair is measured against.
func RecomputeLevels(g *graph.Graph, levels []int, faulty []bool, dim int) int {
	n := g.N()
	for v := 0; v < n; v++ {
		if faulty[v] {
			levels[v] = 0
		} else {
			levels[v] = dim
		}
	}
	next := make([]int, n)
	sweeps := 0
	for s := 0; s < dim*n+1; s++ {
		changed := false
		for v := 0; v < n; v++ {
			if faulty[v] {
				next[v] = 0
				continue
			}
			next[v] = levelOn(g, levels, dim, v)
			if next[v] != levels[v] {
				changed = true
			}
		}
		copy(levels, next)
		if !changed {
			break
		}
		sweeps++
	}
	return sweeps + 1
}

func sortedLevelKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
