package partition_test

import (
	"context"
	"errors"
	"reflect"
	"runtime" // stdlib: GOMAXPROCS
	"testing"

	"structura/internal/gen"
	"structura/internal/partition"
	rt "structura/internal/runtime"
	"structura/internal/sim"
	"structura/internal/stats"
)

func stripElapsed(h []rt.RoundStats) []rt.RoundStats {
	out := append([]rt.RoundStats(nil), h...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// TestShardedCrossResume: a checkpoint taken by an interrupted plain RunCSR
// resumes under Run — clean and perturbed, full and delta — lands on the
// uninterrupted run's states, and prices exactly the rounds it executed.
// The perturbed leg replays a topology swap and a restart during the
// resume's fast-forward, which must not leak into the first priced round.
func TestShardedCrossResume(t *testing.T) {
	und := gen.SparseErdosRenyi(stats.NewRand(7), 48, 0.1)
	g, alt := und.Freeze(), churned(t, und)
	plan, err := partition.New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	const maxRounds, stopAt = 12, 5
	for _, perturbed := range []bool{false, true} {
		for _, delta := range []bool{false, true} {
			name := map[bool]string{false: "clean", true: "perturbed"}[perturbed] +
				map[bool]string{false: "/full", true: "/delta"}[delta]
			opts := []rt.Option{rt.WithMaxRounds(maxRounds), rt.WithParallelism(2)}
			if delta {
				opts = append(opts, rt.WithDelta())
			}
			newPert := func() rt.Perturber { return nil }
			if perturbed {
				newPert = func() rt.Perturber { return &churnPerturber{alt: alt} }
			}
			want, log := recordRun(t, g, newPert(), opts...)
			perRound := recount(plan.Bounds(), log)

			// Interrupt a plain run after round stopAt; the last checkpoint
			// is at round stopAt-1.
			var cps []rt.Checkpoint[int]
			ctx, cancel := context.WithCancel(context.Background())
			half := append(append([]rt.Option(nil), opts...),
				rt.WithContext(ctx),
				rt.WithCheckpoints(2, func(cp rt.Checkpoint[int]) { cps = append(cps, cp) }),
				rt.WithObserver(func(rs rt.RoundStats) {
					if rs.Round == stopAt {
						cancel()
					}
				}),
			)
			if p := newPert(); p != nil {
				half = append(half, rt.WithPerturber(p))
			}
			_, _, err := rt.RunCSR(g, hopInit, hopStep, half...)
			cancel()
			if !errors.Is(err, context.Canceled) || len(cps) == 0 {
				t.Fatalf("%s: interrupted run: err=%v, %d checkpoints", name, err, len(cps))
			}
			cp := cps[len(cps)-1]

			got, _, es, err := partition.Run(plan, hopInit, hopStep, newPert(),
				append(append([]rt.Option(nil), opts...), rt.WithResume(cp))...)
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: resumed states diverged:\n got %v\nwant %v", name, got, want)
			}
			if tail := wantStats(perRound[cp.Round:]); es != tail {
				t.Fatalf("%s: resumed exchange %+v, recount of rounds %d.. %+v", name, es, cp.Round+1, tail)
			}
		}
	}
}

// TestShardedDirected: on a directed graph (readers are in-neighbors, not
// neighbors) Run leaves the kernel's stats untouched and prices the
// exchange exactly, for every shard count, strategy and mode.
func TestShardedDirected(t *testing.T) {
	c := randomDirected(t, 96, 3*96, 11).Freeze()
	for _, delta := range []bool{false, true} {
		base := []rt.Option{rt.WithMaxRounds(30), rt.WithParallelism(2)}
		if delta {
			base = append(base, rt.WithDelta())
		}
		_, wantStats, err := rt.RunCSR(c, hopInit, hopStep, base...)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4, 8} {
			for _, strat := range []partition.Strategy{partition.Contiguous, partition.DegreeBalanced} {
				plan, err := partition.New(c, k, partition.WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				_, st, _, err := partition.Run(plan, hopInit, hopStep, nil, base...)
				if err != nil {
					t.Fatalf("delta=%v k=%d %v: %v", delta, k, strat, err)
				}
				if st.Rounds != wantStats.Rounds || st.Messages != wantStats.Messages || st.Stable != wantStats.Stable ||
					!reflect.DeepEqual(stripElapsed(st.History), stripElapsed(wantStats.History)) {
					t.Fatalf("delta=%v k=%d %v: Run changed the kernel's stats", delta, k, strat)
				}
				checkAgainstRecount(t, "directed", plan, c, nil, base...)
			}
		}
	}
}

// TestShardedDeterminism: the same metered run repeated under different
// GOMAXPROCS values yields identical states, stats and exchange — the
// per-node change slots are written concurrently, and scheduling must not
// leak into the price.
func TestShardedDeterminism(t *testing.T) {
	und := gen.SparseErdosRenyi(stats.NewRand(7), 300, 0.03)
	plan, err := partition.New(und.Freeze(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sch := sim.Schedule{Horizon: 8, ChurnAdd: 2, ChurnRemove: 2, CrashProb: 0.02, Downtime: 2}
	run := func() ([]int, rt.Stats, partition.ExchangeStats) {
		states, st, es, err := partition.Run(plan, hopInit, hopStep, sim.NewPerturber(und, 3, sch),
			rt.WithMaxRounds(40), rt.WithParallelism(4), rt.WithDelta())
		if err != nil {
			t.Fatal(err)
		}
		st.History = stripElapsed(st.History)
		return states, st, es
	}
	wantStates, wantSt, wantEs := run()
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		gotStates, gotSt, gotEs := run()
		runtime.GOMAXPROCS(old)
		if !reflect.DeepEqual(gotStates, wantStates) || !reflect.DeepEqual(gotSt, wantSt) || gotEs != wantEs {
			t.Fatalf("GOMAXPROCS=%d changed the run: %+v vs %+v", procs, gotEs, wantEs)
		}
	}
}

// TestShardedStepPanic: a panicking step surfaces through Run with the same
// error RunCSR reports, naming the same node.
func TestShardedStepPanic(t *testing.T) {
	g := gen.SparseErdosRenyi(stats.NewRand(7), 48, 0.1).Freeze()
	boom := func(v int, self int, nbrs []int) (int, bool) {
		if v == 13 {
			panic("boom")
		}
		return self, false
	}
	_, _, wantErr := rt.RunCSR(g, hopInit, boom, rt.WithMaxRounds(3))
	if wantErr == nil {
		t.Fatal("baseline panic did not surface")
	}
	plan, err := partition.New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, es, gotErr := partition.Run(plan, hopInit, boom, nil, rt.WithMaxRounds(3), rt.WithParallelism(3))
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("Run panic error %q, want %q", gotErr, wantErr)
	}
	if es.Rounds != 0 {
		t.Fatalf("a round that panicked was priced: %+v", es)
	}
}
