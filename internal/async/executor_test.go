package async

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"strings"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/sim"
)

// maxRule is the distributed-max labeling: the canonical confluent rule —
// whatever the delivery order, the fixpoint is the per-component maximum of
// the initial values.
func maxRule(v int, self int, nbrs []int) (int, bool) {
	best := self
	for _, nb := range nbrs {
		if nb > best {
			best = nb
		}
	}
	return best, best != self
}

func hashInit(v int) int { return (v*2654435761 + 17) % 1009 }

func globalMax(n int) int {
	best := 0
	for v := 0; v < n; v++ {
		if h := hashInit(v); h > best {
			best = h
		}
	}
	return best
}

func requireAllEqual(t *testing.T, states []int, want int) {
	t.Helper()
	for v, s := range states {
		if s != want {
			t.Fatalf("node %d settled at %d, want the global max %d", v, s, want)
		}
	}
}

func TestAtLeastOnceUnderLoss(t *testing.T) {
	const n = 24
	g := gen.Ring(n)
	sch := sim.Schedule{Horizon: 12, MsgLoss: 0.4}
	x, err := NewExecutor(g, hashInit, maxRule, sch, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	states, st, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quiesced {
		t.Fatalf("run under 40%% loss did not quiesce: %+v", st)
	}
	// 40% loss on a ring must both drop messages and recover them.
	if st.Lost == 0 {
		t.Error("no message was lost under MsgLoss=0.4")
	}
	if st.Retries == 0 {
		t.Error("no retransmission happened; at-least-once was never exercised")
	}
	requireAllEqual(t, states, globalMax(n))
	if st.DetectedAt < st.LastActivity {
		t.Errorf("detector declared at t=%d before the last activity t=%d", st.DetectedAt, st.LastActivity)
	}
}

// TestBackpressure drives a hot receiver (a star hub with slow processing
// and a tiny mailbox) under both full-mailbox policies. Block must hold the
// overflow and deliver everything without retransmission pressure; Shed must
// drop at the mailbox and recover via retry. Both must reach the same
// fixpoint.
func TestBackpressure(t *testing.T) {
	const leaves = 24
	g := graph.New(leaves + 1)
	for v := 1; v <= leaves; v++ {
		if err := g.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	run := func(p Policy) (states []int, st Stats) {
		// Short, tightly-capped RTO: with 22 shed messages admitted two per
		// retry burst, an uncapped exponential backoff would outlast any
		// reasonable budget — shed recovery is only practical when MaxRTO
		// stays near the receiver's drain rate.
		x, err := NewExecutor(g, hashInit, maxRule, sim.Schedule{Horizon: 1},
			Config{Seed: 3, MailboxCap: 2, ProcTicks: 4, Policy: p,
				Delay: Delay{Kind: Fixed, Base: 1}, RTO: 8, MaxRTO: 64})
		if err != nil {
			t.Fatal(err)
		}
		states, st, err = x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Quiesced {
			t.Fatalf("policy %v did not quiesce: %+v", p, st)
		}
		return states, st
	}
	bStates, bStats := run(Block)
	sStates, sStats := run(Shed)
	if bStats.Blocked == 0 {
		t.Errorf("Block policy never blocked (stats %+v); the hub was not saturated", bStats)
	}
	if bStats.Shed != 0 {
		t.Errorf("Block policy shed %d messages", bStats.Shed)
	}
	if sStats.Shed == 0 {
		t.Errorf("Shed policy never shed (stats %+v); the hub was not saturated", sStats)
	}
	if sStats.Retries == 0 {
		t.Error("Shed policy produced no retries; shed messages were never recovered")
	}
	want := globalMax(leaves + 1)
	requireAllEqual(t, bStates, want)
	requireAllEqual(t, sStates, want)
}

func TestCrashRestartRecovers(t *testing.T) {
	const n = 16
	g := gen.Ring(n)
	sch := sim.Schedule{
		Horizon: 8,
		Events: []sim.Event{
			{Round: 2, Op: sim.OpCrash, U: 3, For: 2},
			{Round: 3, Op: sim.OpCrash, U: 11, For: 1},
		},
	}
	x, err := NewExecutor(g, hashInit, maxRule, sch, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	states, st, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quiesced {
		t.Fatalf("crash/restart run did not quiesce: %+v", st)
	}
	// The restarts reset to init with amnesia; retransmission and the
	// restart broadcast must still converge everyone to the global max.
	requireAllEqual(t, states, globalMax(n))
	if x.LastFaultRound() < 3 {
		t.Errorf("last fault round = %d, want >= 3 (scripted crashes)", x.LastFaultRound())
	}
}

// TestPausedNodeKeepsReceiving pins the bounded-asynchrony semantics: a
// paused node defers its step but its mailbox keeps absorbing messages, so
// on resume one deferred step suffices.
func TestPausedNodeKeepsReceiving(t *testing.T) {
	const n = 12
	g := gen.Ring(n)
	sch := sim.Schedule{
		Horizon: 6,
		Events:  []sim.Event{{Round: 1, Op: sim.OpSkip, U: 4, For: 3}},
	}
	x, err := NewExecutor(g, hashInit, maxRule, sch, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	states, st, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quiesced {
		t.Fatalf("skewed run did not quiesce: %+v", st)
	}
	requireAllEqual(t, states, globalMax(n))
}

func TestContextCancellation(t *testing.T) {
	g := gen.Ring(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the run: the loop must notice and stop cleanly
	x, err := NewExecutor(g, hashInit, maxRule, sim.Schedule{Horizon: 4}, Config{Seed: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	states, st, err := x.Run()
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// Cancellation is clean: the partial state is consistent (full length,
	// no quiescence claim) even though the run was cut short.
	if len(states) != 64 {
		t.Fatalf("partial states have length %d, want 64", len(states))
	}
	if st.Quiesced {
		t.Error("cancelled run claims quiescence")
	}
	if st.DetectedAt != -1 {
		t.Errorf("cancelled run claims a detection time %d", st.DetectedAt)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	g := gen.Ring(8)
	// A rule that never stabilizes: every step reports a change.
	unstable := func(v int, self int, nbrs []int) (int, bool) { return self + 1, true }
	x, err := NewExecutor(g, func(int) int { return 0 }, unstable,
		sim.Schedule{Horizon: 2}, Config{Seed: 1, MaxRounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quiesced {
		t.Fatal("endlessly-changing rule quiesced")
	}
	if st.DetectedAt != -1 {
		t.Errorf("budget-exhausted run has DetectedAt=%d, want -1", st.DetectedAt)
	}
}

// TestDetectorNoFalseDeclaration checks soundness on a run with late
// activity: the detector must never declare before the true last activity.
func TestDetectorNoFalseDeclaration(t *testing.T) {
	const n = 24
	g := gen.Ring(n)
	sch := sim.Schedule{
		Horizon: 10,
		Events:  []sim.Event{{Round: 9, Op: sim.OpCrash, U: 5, For: 1}},
	}
	x, err := NewExecutor(g, hashInit, maxRule, sch, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quiesced {
		t.Fatalf("run did not quiesce: %+v", st)
	}
	if st.DetectedAt < st.LastActivity {
		t.Fatalf("detector declared at t=%d, before the last activity t=%d — unsound",
			st.DetectedAt, st.LastActivity)
	}
}

// statsFingerprint canonicalizes every observable of a run for bit-identical
// replay comparisons.
func statsFingerprint(states []int, st Stats, trace []sim.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d retries=%d delivered=%d acked=%d dups=%d shed=%d blocked=%d lost=%d changes=%d\n",
		st.Sent, st.Retries, st.Delivered, st.Acked, st.Dups, st.Shed, st.Blocked, st.Lost, st.Changes)
	fmt.Fprintf(&b, "last=%d detected=%d quiesced=%v vrounds=%d\n", st.LastActivity, st.DetectedAt, st.Quiesced, st.VRounds)
	for _, rs := range st.History {
		fmt.Fprintf(&b, "h %d %d %d\n", rs.Round, rs.Changed, rs.Messages)
	}
	for _, e := range trace {
		fmt.Fprintf(&b, "t %v\n", e)
	}
	fmt.Fprintf(&b, "s %v\n", states)
	return b.String()
}

// TestDeterministicAcrossGOMAXPROCS is the replay acceptance criterion: the
// single-loop DES must produce bit-identical runs whatever the Go scheduler
// does, so the same (seed, schedule, config) tuple fingerprints identically
// at GOMAXPROCS=1 and at full parallelism.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sch := sim.Schedule{
		Horizon:     8,
		MsgLoss:     0.2,
		CrashProb:   0.02,
		ChurnAdd:    1,
		ChurnRemove: 1,
		ChurnEvery:  2,
	}
	cfg := Config{Seed: 9, Delay: Delay{Kind: Bimodal, Base: 2, Spread: 9, SlowOneIn: 4}}
	run := func() string {
		g := gen.Ring(32)
		x, err := NewExecutor(g, hashInit, maxRule, sch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		states, st, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		return statsFingerprint(states, st, x.Trace())
	}
	prev := stdruntime.GOMAXPROCS(1)
	fp1 := run()
	stdruntime.GOMAXPROCS(prev)
	if prev == 1 {
		stdruntime.GOMAXPROCS(4)
		defer stdruntime.GOMAXPROCS(1)
	}
	fpN := run()
	if fp1 != fpN {
		t.Fatalf("run diverged across GOMAXPROCS settings:\n--- procs=1 ---\n%s--- procs=%d ---\n%s",
			fp1, stdruntime.GOMAXPROCS(0), fpN)
	}
}

// TestChurnReaddRejectsStaleInFlight pins the sequence-memory contract: when
// a link is removed and re-added, any pre-removal message still in flight
// must be rejected as stale rather than regress the receiver's view.
func TestChurnReaddRejectsStaleInFlight(t *testing.T) {
	const n = 16
	g := gen.Ring(n)
	sch := sim.Schedule{
		Horizon: 10,
		Events: []sim.Event{
			{Round: 2, Op: sim.OpRemoveEdge, U: 4, V: 5},
			{Round: 4, Op: sim.OpAddEdge, U: 4, V: 5},
		},
	}
	// Slow bimodal delays so a message can straddle the remove/re-add.
	cfg := Config{Seed: 13, Delay: Delay{Kind: Bimodal, Base: 2, Spread: 40, SlowOneIn: 2}}
	x, err := NewExecutor(g, hashInit, maxRule, sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	states, st, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quiesced {
		t.Fatalf("churned run did not quiesce: %+v", st)
	}
	requireAllEqual(t, states, globalMax(n))
}
