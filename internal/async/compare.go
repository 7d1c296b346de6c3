package async

import (
	"fmt"
	"math"
	"sort"

	"structura/internal/graph"
	"structura/internal/sim"
)

// Comparison is one scenario run under both execution models on the same
// concrete fault timeline. The synchronous run executes first with tracing;
// the asynchronous run then replays the traced events (probabilities
// zeroed), so both sides see the identical fault sequence and any
// divergence isolates the execution model — delays, reorder, retries —
// rather than differing random draws.
type Comparison struct {
	Scenario string
	Seed     uint64

	Sync  *sim.Result // synchronous run, judged
	Async *Result     // asynchronous replay, judged

	// Divergences lists every observed disagreement between the two final
	// worlds: labels, live edge sets, quiescence verdicts. Empty means the
	// async executor reproduced the synchronous outcome exactly.
	Divergences []string
}

// Diverged reports whether the two executions disagree.
func (c *Comparison) Diverged() bool { return len(c.Divergences) > 0 }

// Compare runs `scenario` synchronously under (seed, sch), replays the
// traced fault timeline on the asynchronous executor under cfg, and diffs
// the outcomes. MIS and the monotone fixpoint scenarios (distvec,
// hypercube) are expected to agree — their rules are confluent under
// delivery delay; full link reversal is schedule-dependent, and detecting
// when reordering changes its final orientation is precisely this
// function's purpose.
func Compare(scenario string, seed uint64, sch sim.Schedule, cfg Config) (*Comparison, error) {
	syncRes, err := sim.Explore(scenario, seed, sch)
	if err != nil {
		return nil, fmt.Errorf("async: sync leg: %w", err)
	}
	replay := sim.ConcreteReplay(sch, syncRes.World.Trace)
	asyncRes, err := Explore(scenario, seed, replay, cfg)
	if err != nil {
		return nil, fmt.Errorf("async: async leg: %w", err)
	}
	c := &Comparison{
		Scenario: scenario,
		Seed:     seed,
		Sync:     syncRes,
		Async:    asyncRes,
	}
	c.Divergences = diffWorlds(syncRes.World, asyncRes.World)
	if syncRes.Quiesced != asyncRes.Quiesced {
		c.Divergences = append(c.Divergences, fmt.Sprintf(
			"quiescence: sync=%v async=%v", syncRes.Quiesced, asyncRes.Quiesced))
	}
	return c, nil
}

// diffWorlds diffs the final labelings and live edge sets of two runs of
// the same scenario.
func diffWorlds(s, a *sim.World) []string {
	var out []string
	if d := diffEdges(s.Graph, a.Graph); d != "" {
		out = append(out, d)
	}
	switch {
	case s.MIS != nil && a.MIS != nil:
		for v := range s.MIS.Colors {
			if s.MIS.Colors[v] != a.MIS.Colors[v] {
				out = append(out, fmt.Sprintf("mis: node %d sync=%d async=%d",
					v, s.MIS.Colors[v], a.MIS.Colors[v]))
			}
		}
	case s.Dist != nil && a.Dist != nil:
		for v := range s.Dist.Dist {
			sv, av := s.Dist.Dist[v], a.Dist.Dist[v]
			if sv == av || (math.IsInf(sv, 1) && math.IsInf(av, 1)) {
				continue
			}
			out = append(out, fmt.Sprintf("distvec: node %d sync=%v async=%v", v, sv, av))
		}
	case s.Cube != nil && a.Cube != nil:
		for v := range s.Cube.Levels {
			if s.Cube.Levels[v] != a.Cube.Levels[v] {
				out = append(out, fmt.Sprintf("hypercube: node %d level sync=%d async=%d",
					v, s.Cube.Levels[v], a.Cube.Levels[v]))
			}
		}
	case s.Rev != nil && a.Rev != nil:
		// Heights are schedule-dependent; the meaningful artifact is the
		// orientation of each surviving support link.
		for _, e := range s.Graph.Edges() {
			if !a.Graph.HasEdge(e.From, e.To) {
				continue // already reported as an edge-set divergence
			}
			if s.Rev.PointsTo(e.From, e.To) != a.Rev.PointsTo(e.From, e.To) {
				out = append(out, fmt.Sprintf("reversal: link (%d,%d) oriented %s in sync, %s in async",
					e.From, e.To, orient(s.Rev, e.From, e.To), orient(a.Rev, e.From, e.To)))
			}
		}
		if len(s.Rev.Sinks) != len(a.Rev.Sinks) {
			out = append(out, fmt.Sprintf("reversal: sinks sync=%v async=%v", s.Rev.Sinks, a.Rev.Sinks))
		}
	}
	return out
}

func orient(rw *sim.RevWorld, u, v int) string {
	if rw.PointsTo(u, v) {
		return fmt.Sprintf("%d->%d", u, v)
	}
	return fmt.Sprintf("%d->%d", v, u)
}

// diffEdges compares the undirected live edge sets; both executors applied
// the same concrete churn timeline, so any gap is an executor bug rather
// than adversary randomness.
func diffEdges(s, a *graph.Graph) string {
	se, ae := edgeSet(s), edgeSet(a)
	var onlySync, onlyAsync []string
	for e := range se {
		if !ae[e] {
			onlySync = append(onlySync, e)
		}
	}
	for e := range ae {
		if !se[e] {
			onlyAsync = append(onlyAsync, e)
		}
	}
	if len(onlySync) == 0 && len(onlyAsync) == 0 {
		return ""
	}
	sort.Strings(onlySync)
	sort.Strings(onlyAsync)
	return fmt.Sprintf("edges: only-sync=%v only-async=%v", onlySync, onlyAsync)
}

func edgeSet(g *graph.Graph) map[string]bool {
	out := map[string]bool{}
	for _, e := range g.Edges() {
		u, v := e.From, e.To
		if u > v {
			u, v = v, u
		}
		out[fmt.Sprintf("%d-%d", u, v)] = true
	}
	return out
}
