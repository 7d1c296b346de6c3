// Package bench benchmarks the synchronous round kernel, comparing the
// sequential schedule against the sharded parallel one on the two graph
// families the paper's experiments lean on: sparse Erdős–Rényi and unit
// disk graphs. Run with:
//
//	go test -bench . -benchtime 3x ./internal/runtime/bench
package bench

import (
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"structura/internal/async"
	"structura/internal/gen"
	"structura/internal/geo"
	"structura/internal/graph"
	"structura/internal/runtime"
	"structura/internal/sim"
	"structura/internal/stats"
)

const (
	erNodes  = 100_000
	erDegree = 10
	udgNodes = 20_000
	udgDeg   = 10
)

var (
	erOnce, udgOnce sync.Once
	erG, udgG       *graph.Graph
)

func erGraph() *graph.Graph {
	erOnce.Do(func() {
		erG = gen.SparseErdosRenyi(stats.NewRand(1), erNodes, erDegree/float64(erNodes-1))
	})
	return erG
}

func udgGraph() *graph.Graph {
	udgOnce.Do(func() {
		// Radius for an expected degree of ~udgDeg in the unit square:
		// n * pi * r^2 = udgDeg.
		pts := geo.RandomPoints(stats.NewRand(2), udgNodes, 1, 1)
		udgG = geo.UnitDiskGraph(pts, 0.0126)
	})
	return udgG
}

// maxStep is the distributed-max labeling: one comparison per neighbor per
// round, the lightest realistic per-node work, which makes the benchmark a
// worst case for parallel overhead.
func maxStep(v int, self int, nbrs []int) (int, bool) {
	best := self
	for _, nb := range nbrs {
		if nb > best {
			best = nb
		}
	}
	return best, best != self
}

func benchKernel(b *testing.B, g *graph.Graph) {
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	workerCounts := []int{1, stdruntime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		workerCounts[1] = 4 // still exercise the sharded path on 1-core hosts
	}
	var want int
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				states, st, err := runtime.Run(g, init, maxStep,
					runtime.WithMaxRounds(15), runtime.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				if st.Rounds == 0 {
					b.Fatal("no rounds executed")
				}
				if want == 0 {
					want = states[0]
				} else if states[0] != want {
					b.Fatalf("schedules disagree: state[0] = %d, want %d", states[0], want)
				}
			}
		})
	}
}

// benchKernelCSR measures the steady-state round path: the graph is frozen
// to CSR once outside the timed loop, so the numbers isolate what repeated
// rounds cost once the snapshot exists (the regime of every iterative
// algorithm in this repo — label propagation, PageRank, Bellman-Ford).
func benchKernelCSR(b *testing.B, g *graph.Graph) {
	csr := g.Freeze()
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	workerCounts := []int{1, stdruntime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		workerCounts[1] = 4
	}
	var want int
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				states, st, err := runtime.RunCSR(csr, init, maxStep,
					runtime.WithMaxRounds(15), runtime.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				if st.Rounds == 0 {
					b.Fatal("no rounds executed")
				}
				if want == 0 {
					want = states[0]
				} else if states[0] != want {
					b.Fatalf("schedules disagree: state[0] = %d, want %d", states[0], want)
				}
			}
		})
	}
}

func BenchmarkKernelER100k(b *testing.B) { benchKernel(b, erGraph()) }

func BenchmarkKernelUDG20k(b *testing.B) { benchKernel(b, udgGraph()) }

func BenchmarkKernelCSRER100k(b *testing.B) { benchKernelCSR(b, erGraph()) }

func BenchmarkKernelCSRUDG20k(b *testing.B) { benchKernelCSR(b, udgGraph()) }

// BenchmarkAsyncER100k prices the event-driven executor against the same
// 100k-node ER graph and labeling the kernel benchmarks use: one op is a
// full run to detector-declared quiescence under 1% message loss inside an
// 8-window fault horizon. ns/op is the quiescence wall-time; the custom
// metrics record the retry overhead (retransmissions / transmissions) and
// the virtual time at which quiescence was detected.
func BenchmarkAsyncER100k(b *testing.B) {
	g := erGraph()
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	sch := sim.Schedule{Horizon: 8, MsgLoss: 0.01}
	b.ReportAllocs()
	// The one-time ER generation (sync.Once, ~400k allocations) must not
	// be billed to the first executor run.
	b.ResetTimer()
	var retry, vticks float64
	for i := 0; i < b.N; i++ {
		x, err := async.NewExecutor(g, init, maxStep, sch, async.Config{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		_, st, err := x.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !st.Quiesced {
			b.Fatal("run did not quiesce within budget")
		}
		retry = st.RetryOverhead()
		vticks = float64(st.DetectedAt)
	}
	b.ReportMetric(retry, "retry-frac")
	b.ReportMetric(vticks, "quiesce-vticks")
}

// BenchmarkDeltaSteadyER100k prices the steady-state regime the delta
// frontier targets: the 100k-node ER graph where almost every label sits
// at its fixed point while a scripted stream of crash/restart faults keeps
// a bounded fraction of the network churning. Churn is quoted as the
// fraction of nodes disturbed per steady-state round — each restart dirties
// itself plus the neighbors that must re-observe it across two rounds, so a
// crash touches ~2(deg+1) ≈ 22 node-steps and the crashes-per-round count
// is the quoted fraction times n/22. Faults are scripted (no per-node
// probability draw) and topology is untouched, so the numbers isolate
// kernel stepping — no O(n) rng scans or refreeze/remap costs on either
// leg. One op is a 60-round perturbed run replaying the identical fault
// timeline on both legs; steady-ns/round is the mean cost of the rounds
// after the convergence window (the number the <10%-of-a-full-sweep
// acceptance bound reads at churn=1%), and steady-msgs/round the matching
// delivered-message volume.
func BenchmarkDeltaSteadyER100k(b *testing.B) {
	g := erGraph()
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	const rounds, warmup = 60, 15
	churns := []struct {
		name    string
		crashes int // per round ≈ fraction·n / 22 disturbed nodes per crash
	}{
		{"0.1%", 4},
		{"1%", 45},
		{"10%", 450},
	}
	for _, churn := range churns {
		events := make([]sim.Event, 0, rounds*churn.crashes)
		for r := 1; r <= rounds; r++ {
			for i := 0; i < churn.crashes; i++ {
				// Deterministic victim spread; the index never wraps n
				// within a run, so no victim repeats while still down.
				v := ((r*churn.crashes + i) * 9973) % erNodes
				events = append(events, sim.Event{Round: r, Op: sim.OpCrash, U: v, For: 1})
			}
		}
		sch := sim.Schedule{Horizon: rounds, Events: events}
		for _, mode := range []string{"full", "delta"} {
			b.Run(fmt.Sprintf("churn=%s/%s", churn.name, mode), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				var steadyNs, steadyMsgs float64
				for i := 0; i < b.N; i++ {
					opts := []runtime.Option{
						runtime.WithMaxRounds(rounds),
						runtime.WithPerturber(sim.NewPerturber(g, 3, sch)),
					}
					if mode == "delta" {
						opts = append(opts, runtime.WithDelta())
					}
					_, st, err := runtime.Run(g, init, maxStep, opts...)
					if err != nil {
						b.Fatal(err)
					}
					var sum time.Duration
					msgs, cnt := 0, 0
					for _, rs := range st.History {
						if rs.Round > warmup {
							sum += rs.Elapsed
							msgs += rs.Messages
							cnt++
						}
					}
					if cnt == 0 {
						b.Fatal("run ended before the steady-state window")
					}
					steadyNs = float64(sum.Nanoseconds()) / float64(cnt)
					steadyMsgs = float64(msgs) / float64(cnt)
				}
				b.ReportMetric(steadyNs, "steady-ns/round")
				b.ReportMetric(steadyMsgs, "steady-msgs/round")
			})
		}
	}
}

// BenchmarkFreezeER100k prices the snapshot itself, so the amortization
// argument (freeze once, run many rounds) can be checked against numbers.
func BenchmarkFreezeER100k(b *testing.B) {
	g := erGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := g.Freeze(); c.N() != erNodes {
			b.Fatal("bad freeze")
		}
	}
}

// churn applies one batch of ops edge mutations to g, half removes of an
// existing edge and then half adds of a new one, at nodes drawn from r,
// and returns touched extended by the batch's endpoints.
func churn(g *graph.Graph, r *rand.Rand, ops int, touched []int) []int {
	for removed := 0; removed < ops/2; {
		if u := r.Intn(g.N()); g.Degree(u) > 0 {
			v := g.Neighbors(u)[0]
			g.RemoveEdge(u, v)
			touched = append(touched, u, v)
			removed++
		}
	}
	for added := 0; added < ops-ops/2; {
		if u, v := r.Intn(g.N()), r.Intn(g.N()); g.TryAddEdge(u, v, 1) {
			touched = append(touched, u, v)
			added++
		}
	}
	return touched
}

// BenchmarkFreezeFrom prices the structure server's per-epoch topology
// build: one 100-op batch (50 removes, 50 adds) is applied to an ER graph
// of average degree 10, and each iteration takes the page-shared snapshot
// with the batch's 200 endpoints as touched, from the snapshot taken before
// the batch. The
// Freeze leg is the whole-graph snapshot of the same graph, the cost the
// paged build replaces; at a fixed batch the FreezeFrom leg should stay
// flat from 100k to 1M nodes. The ER100kIngest leg is the server's shape
// under sustained ingest: the 100k graph's rows are first scattered by 300
// 256-op batches, then each iteration applies a fresh 256-op batch,
// untimed, and snapshots it from the previous iteration's snapshot.
func BenchmarkFreezeFrom(b *testing.B) {
	for _, size := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"ER100k", func() *graph.Graph { return erGraph().Clone() }},
		{"ER1M", func() *graph.Graph {
			return gen.SparseErdosRenyi(stats.NewRand(1), 1_000_000, erDegree/float64(1_000_000-1))
		}},
	} {
		g := size.g()
		prev := g.FreezeFrom(nil, nil)
		touched := churn(g, stats.NewRand(3), 100, nil)
		b.Run(size.name+"/FreezeFrom", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p := g.FreezeFrom(prev, touched); p.M() != g.M() {
					b.Fatal("bad paged freeze")
				}
			}
		})
		b.Run(size.name+"/Freeze", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := g.Freeze(); c.M() != g.M() {
					b.Fatal("bad freeze")
				}
			}
		})
	}
	b.Run("ER100kIngest/FreezeFrom", func(b *testing.B) {
		g, r := erGraph().Clone(), stats.NewRand(4)
		for range 300 {
			churn(g, r, 256, nil)
		}
		prev := g.FreezeFrom(nil, nil)
		touched := make([]int, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			touched = churn(g, r, 256, touched[:0])
			b.StartTimer()
			if prev = g.FreezeFrom(prev, touched); prev.M() != g.M() {
				b.Fatal("bad paged freeze")
			}
		}
	})
}
