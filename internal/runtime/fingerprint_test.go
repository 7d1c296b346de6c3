package runtime

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/stats"
)

// fpMIS is a priority-greedy MIS election: an undecided node joins when it
// outranks every undecided neighbor and leaves when a neighbor has joined.
// Struct states keep the fingerprint honest about non-int payloads.
type fpMIS struct{ Prio, Status int }

const (
	fpUndecided = iota
	fpIn
	fpOut
)

func fpMISInit(v int) fpMIS { return fpMIS{Prio: (v*73 + 5) % fpNodes} }

func fpMISStep(v int, self fpMIS, nbrs []fpMIS) (fpMIS, bool) {
	if self.Status != fpUndecided {
		return self, false
	}
	top := true
	for _, w := range nbrs {
		if w.Status == fpIn {
			return fpMIS{Prio: self.Prio, Status: fpOut}, true
		}
		if w.Status == fpUndecided && w.Prio > self.Prio {
			top = false
		}
	}
	if top {
		return fpMIS{Prio: self.Prio, Status: fpIn}, true
	}
	return self, false
}

func fpMaxInit(v int) int { return v * 2654435761 % 1000 }

// fpNodes spans four bitset words, so two and four workers get real
// word-aligned shards.
const fpNodes = 200

// fpPerturber exercises every Perturbation field on a replayable, round-keyed
// timeline: a topology swap and swap back, restarts, an inactive window,
// silenced senders and per-link drops.
type fpPerturber struct{ base, alt *graph.CSR }

func (p *fpPerturber) BeforeRound(round int, g *graph.CSR) Perturbation {
	var per Perturbation
	n := g.N()
	switch round {
	case 3:
		per.Topology = p.alt
	case 7:
		per.Topology = p.base
	}
	if round == 4 || round == 8 {
		per.Restart = make([]bool, n)
		for _, v := range []int{2, 65, 130} {
			per.Restart[(v+round)%n] = true
		}
	}
	if round >= 2 && round <= 5 {
		per.Inactive = make([]bool, n)
		for v := 0; v < n; v += 23 {
			per.Inactive[(v+round)%n] = true
		}
	}
	if round == 3 || round == 5 || round == 6 {
		per.Silence = make([]bool, n)
		for v := 1; v < n; v += 29 {
			per.Silence[v] = true
		}
	}
	if round <= 8 {
		per.Drop = func(from, to int) bool { return (from*31+to*17+round)%6 == 0 }
	}
	return per
}

func (p *fpPerturber) Active(round int) bool { return round <= 9 }

// fpGraphs returns an undirected or directed base topology and a churned
// variant (edges removed, edges added, and rows reordered by the refreeze).
func fpGraphs(t *testing.T, directed bool) (*graph.CSR, *graph.CSR) {
	t.Helper()
	var g *graph.Graph
	if directed {
		g = graph.NewDirected(fpNodes)
		for v := 0; v < fpNodes; v++ {
			g.AddEdge(v, (v+1)%fpNodes)
			if v%7 == 0 {
				g.AddEdge(v, (v+fpNodes/2)%fpNodes)
			}
		}
	} else {
		g = gen.SparseErdosRenyi(stats.NewRand(21), fpNodes, 0.03)
	}
	alt := g.Clone()
	for v := 0; v < fpNodes; v += 11 {
		if nb := alt.Neighbors(v); len(nb) > 0 {
			alt.RemoveEdge(v, nb[0])
		}
		alt.TryAddEdge(v, (v*13+7)%fpNodes, 1)
	}
	return g.Freeze(), alt.Freeze()
}

// fpHash digests everything a run reports that must not depend on how the
// kernel schedules it: final states, the stats and per-round history (minus
// wall time), and every emitted checkpoint's kernel state.
func fpHash[S any](states []S, st Stats, cps []Checkpoint[S]) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "states %v\n", states)
	fmt.Fprintf(h, "stats %d %v %d\n", st.Rounds, st.Stable, st.Messages)
	for _, rs := range st.History {
		fmt.Fprintf(h, "round %d %d %d\n", rs.Round, rs.Changed, rs.Messages)
	}
	for _, cp := range cps {
		fmt.Fprintf(h, "ckpt %d %v %v %v %v %v %v\n",
			cp.Round, cp.Delta, cp.States, cp.Seen, cp.Changed, cp.Frontier, cp.Pending)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// kernelFingerprints pins the absolute outputs of every kernel mode. The
// values were recorded before the four round loops became one; a change
// here means a mode's states, accounting or checkpoints moved.
var kernelFingerprints = map[string]string{
	"full/clean/undirected/max":      "01660cf1fd930400",
	"full/clean/undirected/hop":      "09e307a3d2379abc",
	"full/clean/undirected/mis":      "967d8e6f63dcdb30",
	"full/perturbed/undirected/max":  "51c75cd5fd098fff",
	"full/perturbed/undirected/hop":  "a77b1331c796297d",
	"full/perturbed/undirected/mis":  "b30c239b9ba5e226",
	"delta/clean/undirected/max":     "ccc3c61235b6d390",
	"delta/clean/undirected/hop":     "572a183a5f3fc874",
	"delta/clean/undirected/mis":     "1418773148baa2fb",
	"delta/perturbed/undirected/max": "8b031b4f4d2058b7",
	"delta/perturbed/undirected/hop": "dc16d6e56162cbf7",
	"delta/perturbed/undirected/mis": "687fb24f81fd3b1c",
	"full/clean/directed/max":        "fd567fb3dc7e6076",
	"full/clean/directed/hop":        "8d1f2082a88927b2",
	"full/clean/directed/mis":        "9a71f6b36195a30c",
	"full/perturbed/directed/max":    "807c0ef95bb38a05",
	"full/perturbed/directed/hop":    "404fe857bc23bc6c",
	"full/perturbed/directed/mis":    "b86e83fb08aa35e4",
	"delta/clean/directed/max":       "a01ff04a3b7479c3",
	"delta/clean/directed/hop":       "e88bf4581f015bd5",
	"delta/clean/directed/mis":       "b96b87a9f7875d07",
	"delta/perturbed/directed/max":   "47ac69a463c57e79",
	"delta/perturbed/directed/hop":   "4760074ef4bd5d73",
	"delta/perturbed/directed/mis":   "010a98b43943150a",
}

// fpCase runs one rule under every worker count, checks each run against the
// pinned fingerprint, and checks that resuming from a mid-run checkpoint
// reproduces the uninterrupted run.
func fpCase[S any](
	t *testing.T, name string,
	g *graph.CSR,
	newPerturber func() Perturber,
	delta bool,
	init func(v int) S,
	step func(v int, self S, nbrs []S) (S, bool),
) {
	t.Helper()
	opts := func(w int, extra ...Option) []Option {
		out := []Option{WithMaxRounds(40), WithParallelism(w)}
		if delta {
			out = append(out, WithDelta())
		}
		if newPerturber != nil {
			out = append(out, WithPerturber(newPerturber()))
		}
		return append(out, extra...)
	}
	for _, w := range []int{1, 2, 4} {
		var cps []Checkpoint[S]
		states, st, err := RunCSR(g, init, step,
			opts(w, WithCheckpoints(1, func(cp Checkpoint[S]) { cps = append(cps, cp) }))...)
		if err != nil {
			t.Fatalf("%s w%d: %v", name, w, err)
		}
		if got, want := fpHash(states, st, cps), kernelFingerprints[name]; got != want {
			t.Errorf("%s w%d: fingerprint %s, want %s", name, w, got, want)
		}
		if len(cps) < 3 {
			t.Fatalf("%s w%d: only %d checkpoints", name, w, len(cps))
		}
		cp := cps[len(cps)/2]
		got, gotStats, err := RunCSR(g, init, step, opts(w%4+1, WithResume(cp))...)
		if err != nil {
			t.Fatalf("%s w%d resume@%d: %v", name, w, cp.Round, err)
		}
		if !reflect.DeepEqual(got, states) ||
			gotStats.Rounds != st.Rounds || gotStats.Stable != st.Stable || gotStats.Messages != st.Messages ||
			!reflect.DeepEqual(stripElapsed(gotStats.History), stripElapsed(st.History)) {
			t.Errorf("%s w%d resume@%d diverged from the uninterrupted run", name, w, cp.Round)
		}
	}
}

// TestKernelFingerprint pins the kernel's absolute outputs across {full,
// delta} × {clean, perturbed} × {undirected, directed} × {max, hop-count,
// MIS}, each under 1, 2 and 4 workers. The equivalence suites compare the
// modes with each other and skip Messages; this test catches a change made
// to every mode at once.
func TestKernelFingerprint(t *testing.T) {
	for _, directed := range []bool{false, true} {
		base, alt := fpGraphs(t, directed)
		for _, delta := range []bool{false, true} {
			for _, perturbed := range []bool{false, true} {
				var newPerturber func() Perturber
				if perturbed {
					newPerturber = func() Perturber { return &fpPerturber{base: base, alt: alt} }
				}
				key := fmt.Sprintf("%s/%s/%s",
					map[bool]string{false: "full", true: "delta"}[delta],
					map[bool]string{false: "clean", true: "perturbed"}[perturbed],
					map[bool]string{false: "undirected", true: "directed"}[directed])
				fpCase(t, key+"/max", base, newPerturber, delta, fpMaxInit, maxStep)
				fpCase(t, key+"/hop", base, newPerturber, delta, hopInit, hopStep)
				fpCase(t, key+"/mis", base, newPerturber, delta, fpMISInit, fpMISStep)
			}
		}
	}
}
