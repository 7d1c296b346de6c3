package async

import (
	"strings"
	"testing"

	"structura/internal/sim"
)

// TestCompareMonotoneScenariosAgree checks the confluence claim Compare
// documents: the monotone fixpoint scenarios (distvec, hypercube) and the
// MIS election reach the same final world under both execution models when
// both replay the identical concrete fault timeline.
func TestCompareMonotoneScenariosAgree(t *testing.T) {
	cases := []struct {
		scenario string
		seed     uint64
		sch      sim.Schedule
	}{
		{"distvec", 3, sim.Schedule{Horizon: 8, ChurnAdd: 1, ChurnRemove: 1, ChurnEvery: 2}},
		{"mis", 4, sim.Schedule{Horizon: 6, MsgLoss: 0.2}},
		{"hypercube", 5, sim.Schedule{Horizon: 6}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			c, err := Compare(tc.scenario, tc.seed, tc.sch,
				Config{Delay: Delay{Kind: Uniform, Base: 2, Spread: 9}})
			if err != nil {
				t.Fatal(err)
			}
			if c.Diverged() {
				t.Fatalf("execution models diverged:\n%s", strings.Join(c.Divergences, "\n"))
			}
			if !c.Sync.Quiesced || !c.Async.Quiesced {
				t.Fatalf("quiescence: sync=%v async=%v", c.Sync.Quiesced, c.Async.Quiesced)
			}
		})
	}
}

// TestCompareDetectsReversalDivergence pins Compare's reason to exist: full
// link reversal is schedule-dependent, and under delivery reorder the final
// orientation differs from the synchronous round schedule. The divergence
// must be reported, not smoothed over.
func TestCompareDetectsReversalDivergence(t *testing.T) {
	c, err := Compare("reversal-full", 2,
		sim.Schedule{Horizon: 8, ChurnRemove: 2},
		Config{Delay: Delay{Kind: Bimodal, Base: 2, Spread: 24, SlowOneIn: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Diverged() {
		t.Fatal("reversal under reorder reported no divergence; the diff is blind")
	}
	found := false
	for _, d := range c.Divergences {
		if strings.Contains(d, "reversal") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reversal-orientation divergence among: %v", c.Divergences)
	}
}

// TestCompareReplaysSameTimeline checks the churn timeline is shared: after
// a Compare with churn, both worlds hold the same live edge set (an edge-set
// divergence would be an executor bug, and would poison every label diff).
func TestCompareReplaysSameTimeline(t *testing.T) {
	c, err := Compare("distvec", 6,
		sim.Schedule{Horizon: 8, ChurnAdd: 1, ChurnRemove: 1, ChurnEvery: 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Divergences {
		if strings.HasPrefix(d, "edges:") {
			t.Fatalf("live edge sets diverged on a shared timeline: %s", d)
		}
	}
	if d := diffEdges(c.Sync.World.Graph, c.Async.World.Graph); d != "" {
		t.Fatalf("edge diff: %s", d)
	}
}

// TestConcreteReplayZeroesDraws pins the replay-schedule transformation.
func TestConcreteReplayZeroesDraws(t *testing.T) {
	sch := sim.Schedule{
		Horizon: 9, Budget: 40, MsgLoss: 0.5, CrashProb: 0.1, SkewProb: 0.2,
		ChurnAdd: 2, ChurnRemove: 3,
	}
	events := []sim.Event{{Round: 1, Op: sim.OpRemoveEdge, U: 0, V: 1}}
	got := sim.ConcreteReplay(sch, events)
	if got.MsgLoss != 0 || got.CrashProb != 0 || got.SkewProb != 0 ||
		got.ChurnAdd != 0 || got.ChurnRemove != 0 {
		t.Fatalf("probabilistic draws survived: %+v", got)
	}
	if got.Horizon != 9 || got.Budget != 40 {
		t.Fatalf("windows not preserved: %+v", got)
	}
	if len(got.Events) != 1 {
		t.Fatalf("scripted events not installed: %+v", got)
	}
}
