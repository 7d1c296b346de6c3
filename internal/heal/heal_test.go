package heal

import (
	"errors"
	"strings"
	"testing"

	"structura/internal/graph"
	"structura/internal/labeling"
	"structura/internal/runtime"
	"structura/internal/sim"
)

// churnSchedule is the PR-3 chaos finding this package exists to fix: under
// one add + one remove per round for ten rounds, the one-shot MIS election
// ends with standing violations on 6 of 8 seeds.
func churnSchedule() sim.Schedule {
	return sim.Schedule{Horizon: 10, ChurnAdd: 1, ChurnRemove: 1}
}

// TestSupervisedMISUnderChurn is the headline acceptance criterion: the
// supervised MIS engine ends every churn run of seeds 1..8 with zero
// standing violations, and successful localized repairs touch under 20% of
// the nodes.
func TestSupervisedMISUnderChurn(t *testing.T) {
	detections := 0
	for seed := uint64(1); seed <= 8; seed++ {
		eng, err := NewEngine("mis", seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sup := &Supervisor{Engine: eng, Budget: Budget{MaxTouched: eng.Live().N() / 5}}
		rep, err := sup.Run(seed, churnSchedule())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Standing) != 0 {
			t.Errorf("seed %d: %d standing violations, first: %s", seed, len(rep.Standing), rep.Standing[0])
		}
		if rep.MaxTouchedFrac >= 0.2 {
			t.Errorf("seed %d: repair touched %.0f%% of nodes, want < 20%%", seed, 100*rep.MaxTouchedFrac)
		}
		if rep.Events == 0 {
			t.Errorf("seed %d: schedule applied no churn", seed)
		}
		if err := labeling.VerifyMIS(eng.Live(), eng.(*misEngine).in); err != nil {
			t.Errorf("seed %d: final membership: %v", seed, err)
		}
		detections += len(rep.Detections)
		for _, d := range rep.Detections {
			if d.Latency != 0 {
				t.Errorf("seed %d: local MIS detection has latency %d, want 0", seed, d.Latency)
			}
		}
	}
	if detections == 0 {
		t.Fatal("no seed produced a single violation to heal; the schedule is too tame to test anything")
	}
}

// TestRepairVsRecompute checks the economics the supervisor exists for:
// across the churn seeds, localized repair does strictly less round work
// than escalating every detection to a full re-election.
func TestRepairVsRecompute(t *testing.T) {
	localized, forced := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		for _, force := range []bool{false, true} {
			eng, err := NewEngine("mis", seed)
			if err != nil {
				t.Fatal(err)
			}
			sup := &Supervisor{Engine: eng, ForceRecompute: force}
			rep, err := sup.Run(seed, churnSchedule())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Standing) != 0 {
				t.Fatalf("seed %d force=%v: standing: %s", seed, force, rep.Standing[0])
			}
			if force {
				forced += rep.RecomputeRounds
			} else {
				localized += rep.RepairRounds + rep.RecomputeRounds
			}
		}
	}
	if localized >= forced {
		t.Errorf("localized repair cost %d rounds >= forced recompute cost %d", localized, forced)
	}
	t.Logf("repair-vs-recompute rounds across 8 seeds: localized %d, forced %d", localized, forced)
}

// TestSupervisedEnginesUnderChurn drives every engine through churn and
// requires a clean final sweep whenever the support stayed whole enough for
// the structure to exist at all.
func TestSupervisedEnginesUnderChurn(t *testing.T) {
	for _, name := range EngineNames() {
		for seed := uint64(1); seed <= 4; seed++ {
			eng, err := NewEngine(name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			sup := &Supervisor{Engine: eng, Budget: Budget{MaxRounds: 256, MaxTouched: 0}}
			rep, err := sup.Run(seed, churnSchedule())
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(rep.Standing) != 0 {
				// The one legitimate excuse: churn severed the support, so no
				// repair or recompute can restore the structure.
				if (name == "cds" && !eng.Live().Connected()) ||
					(name == "reversal" && destPartitioned(eng.Live(), 0)) {
					t.Logf("%s seed %d: support disconnected, %d violations stand (unwinnable)", name, seed, len(rep.Standing))
					continue
				}
				t.Errorf("%s seed %d: %d standing violations, first: %s", name, seed, len(rep.Standing), rep.Standing[0])
			}
		}
	}
}

// destPartitioned reports whether any linked node cannot reach dest — the
// condition under which no reversal discipline can restore orientation.
func destPartitioned(g *graph.Graph, dest int) bool {
	dist, _, err := g.BFS(dest)
	if err != nil {
		return true
	}
	for v, d := range dist {
		if d < 0 && g.Degree(v) > 0 {
			return true
		}
	}
	return false
}

// fakeEngine exercises supervisor control flow in isolation.
type fakeEngine struct {
	g           *graph.Graph
	broken      bool
	localSees   bool // local detector reports the breakage
	repairOK    bool // repair claims success
	repairFixes bool // repair actually clears the breakage
	recomputeOK bool
	repairs     int
	recomputes  int
}

func newFakeEngine() *fakeEngine {
	g := graph.New(3)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	return &fakeEngine{g: g}
}

func (f *fakeEngine) Name() string       { return "fake" }
func (f *fakeEngine) Live() *graph.Graph { return f.g }

func (f *fakeEngine) Apply(e sim.Event) ([]int, bool) {
	dirty, applied := edgeEndpoints(e)
	if applied {
		f.broken = true
	}
	return dirty, applied
}

func (f *fakeEngine) CheckLocal(dirty []int) []sim.Violation {
	if f.broken && f.localSees {
		return []sim.Violation{{Invariant: "fake", Node: 0, Edge: [2]int{-1, -1}, Detail: "broken"}}
	}
	return nil
}

func (f *fakeEngine) Repair(_ []sim.Violation, _ Budget) RepairOutcome {
	f.repairs++
	if f.repairFixes {
		f.broken = false
	}
	return RepairOutcome{Touched: []int{0}, Rounds: 1, OK: f.repairOK}
}

func (f *fakeEngine) Recompute() (int, error) {
	f.recomputes++
	if !f.recomputeOK {
		return 0, errors.New("fake: cannot recompute")
	}
	f.broken = false
	return 5, nil
}

// Snapshot reports the breakage through the MIS independence checker: two
// adjacent Black nodes while broken, a legal coloring otherwise.
func (f *fakeEngine) Snapshot() *sim.World {
	g := graph.New(2)
	_ = g.AddEdge(0, 1)
	colors := []labeling.Color{labeling.Black, labeling.Gray}
	if f.broken {
		colors[1] = labeling.Black
	}
	return &sim.World{
		Scenario: "fake",
		Graph:    g,
		Stats:    runtime.Stats{Stable: true},
		MIS:      &sim.MISWorld{Colors: colors, Stable: true},
	}
}

func breakAt(round int) sim.Schedule {
	return sim.Schedule{Events: []sim.Event{{Round: round, Op: sim.OpRemoveEdge, U: 0, V: 1}}}
}

func TestSweepDetectionLatency(t *testing.T) {
	f := newFakeEngine()
	f.repairOK, f.repairFixes, f.recomputeOK = true, true, true
	// The local detector is blind, so only the every-3-rounds sweep can see
	// the round-1 fault: detection at round 3 with latency 2.
	sup := &Supervisor{Engine: f, SweepEvery: 3}
	sch := breakAt(1)
	sch.Horizon = 6
	rep, err := sup.Run(1, sch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Detections) != 1 {
		t.Fatalf("detections = %+v, want exactly one", rep.Detections)
	}
	if d := rep.Detections[0]; d.Round != 3 || d.Latency != 2 {
		t.Errorf("detection at round %d latency %d, want round 3 latency 2", d.Round, d.Latency)
	}
	if rep.MaxLatency != 2 || rep.Repairs != 1 || rep.Escalations != 0 || len(rep.Standing) != 0 {
		t.Errorf("report = %+v, want latency 2, one repair, no escalation, no standing", rep)
	}
	if !strings.Contains(rep.Detections[0].First, "mis-independence") {
		t.Errorf("detection cause %q, want the registry's independence violation", rep.Detections[0].First)
	}
}

func TestBudgetExhaustionEscalates(t *testing.T) {
	f := newFakeEngine()
	f.localSees, f.recomputeOK = true, true
	f.repairOK = false // budget exhausted mid-repair
	sup := &Supervisor{Engine: f}
	rep, err := sup.Run(1, breakAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repairs != 1 || rep.Escalations != 1 || f.recomputes != 1 {
		t.Errorf("repairs=%d escalations=%d recomputes=%d, want 1/1/1", rep.Repairs, rep.Escalations, f.recomputes)
	}
	if rep.RecomputeRounds != 5 || len(rep.Standing) != 0 {
		t.Errorf("recompute rounds %d standing %d, want 5 and none", rep.RecomputeRounds, len(rep.Standing))
	}
	if rep.RepairTouched != 0 {
		t.Errorf("failed repair credited %d touched nodes", rep.RepairTouched)
	}
}

func TestFailedVerificationEscalates(t *testing.T) {
	f := newFakeEngine()
	f.localSees, f.recomputeOK = true, true
	f.repairOK = true // claims success...
	f.repairFixes = false
	sup := &Supervisor{Engine: f}
	rep, err := sup.Run(1, breakAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escalations != 1 || f.recomputes != 1 || len(rep.Standing) != 0 {
		t.Errorf("escalations=%d recomputes=%d standing=%d, want 1/1/0", rep.Escalations, f.recomputes, len(rep.Standing))
	}
}

func TestFailedRecomputeLeavesStanding(t *testing.T) {
	f := newFakeEngine()
	f.localSees = true // repair fails, recompute fails: nothing can fix it
	sup := &Supervisor{Engine: f}
	rep, err := sup.Run(1, breakAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Standing) == 0 {
		t.Fatal("unfixable breakage reported no standing violations")
	}
	if rep.RecomputeRounds != 0 {
		t.Errorf("failed recompute charged %d rounds", rep.RecomputeRounds)
	}
}

func TestSupervisorGuards(t *testing.T) {
	if _, err := (&Supervisor{}).Run(1, sim.Schedule{}); !errors.Is(err, ErrNoEngine) {
		t.Errorf("no-engine run: %v, want ErrNoEngine", err)
	}
	sup := &Supervisor{Engine: newFakeEngine()}
	if _, err := sup.Run(1, sim.Schedule{Horizon: -1}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("invalid schedule: %v, want a named-field error", err)
	}
	if _, err := NewEngine("nope", 1); err == nil {
		t.Error("unknown engine name accepted")
	}
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("NewEngine(%q).Name() = %q", name, eng.Name())
		}
	}
}

// TestQuietRunIsUntouched: no faults, no detections, no repairs.
func TestQuietRunIsUntouched(t *testing.T) {
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		sup := &Supervisor{Engine: eng, SweepEvery: 2}
		rep, err := sup.Run(2, sim.Schedule{Horizon: 6})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Events != 0 || rep.Repairs != 0 || rep.Escalations != 0 || len(rep.Standing) != 0 {
			t.Errorf("%s: quiet run produced %+v", name, rep)
		}
		if rep.Sweeps != 3 {
			t.Errorf("%s: %d sweeps over 6 rounds with SweepEvery=2, want 3", name, rep.Sweeps)
		}
	}
}
