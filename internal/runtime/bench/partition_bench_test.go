package bench

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/partition"
	"structura/internal/runtime"
	"structura/internal/sim"
	"structura/internal/stats"
)

// benchPlan builds a partition or fails the benchmark.
func benchPlan(b *testing.B, c *graph.CSR, k int, opts ...partition.Option) *partition.Plan {
	b.Helper()
	plan, err := partition.New(c, k, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// checkExchange fails the benchmark unless the priced exchange, rounded as
// the benchmark output prints it, equals the recorded trajectory values.
func checkExchange(b *testing.B, es partition.ExchangeStats, values, bytes float64) {
	b.Helper()
	v, by := math.Round(es.ValuesPerRound()), math.Round(es.BytesPerRound())
	if v != values || by != bytes {
		b.Fatalf("exchange %.0f values/round, %.0f bytes/round; recorded %.0f, %.0f", v, by, values, bytes)
	}
}

// BenchmarkPartitionedCSRER100k prices the 100k CSR kernel workload (15
// rounds of distributed-max) on k edge-cut shards. ns/round is the metered
// unsharded run; values/round and bytes/round are the boundary traffic a
// k-shard deployment would ship, pinned to the recorded trajectory.
func BenchmarkPartitionedCSRER100k(b *testing.B) {
	csr := erGraph().Freeze()
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	recorded := map[int][2]float64{2: {62120, 496959}, 4: {172107, 1376856}, 8: {311861, 2494891}}
	var want int
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			plan := benchPlan(b, csr, k)
			st := plan.Stats()
			b.ResetTimer()
			var nsPerRound float64
			var es partition.ExchangeStats
			for i := 0; i < b.N; i++ {
				start := time.Now()
				states, rst, ex, err := partition.Run(plan, init, maxStep, nil,
					runtime.WithMaxRounds(15), runtime.WithParallelism(k))
				if err != nil {
					b.Fatal(err)
				}
				if rst.Rounds == 0 {
					b.Fatal("no rounds executed")
				}
				nsPerRound = float64(time.Since(start).Nanoseconds()) / float64(rst.Rounds)
				if want == 0 {
					want = states[0]
				} else if states[0] != want {
					b.Fatalf("metered run disagrees: state[0] = %d, want %d", states[0], want)
				}
				es = ex
			}
			checkExchange(b, es, recorded[k][0], recorded[k][1])
			b.ReportMetric(nsPerRound, "ns/round")
			b.ReportMetric(es.ValuesPerRound(), "values/round")
			b.ReportMetric(es.BytesPerRound(), "bytes/round")
			b.ReportMetric(st.CutFraction, "cut-frac")
			b.ReportMetric(st.GhostFraction, "ghost-frac")
		})
	}
}

// BenchmarkPartitionedDeltaSteadyER100k prices the delta steady-state bench
// at 1% churn: the delta frontier bounds the per-round work and the
// per-round exchange to the dirty boundary, so bytes/round here is the
// steady-state network cost of keeping k shards coherent.
func BenchmarkPartitionedDeltaSteadyER100k(b *testing.B) {
	csr := erGraph().Freeze()
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	const rounds, warmup, crashes = 60, 15, 45 // ~1% churn, as in the unsharded leg
	events := make([]sim.Event, 0, rounds*crashes)
	for r := 1; r <= rounds; r++ {
		for i := 0; i < crashes; i++ {
			v := ((r*crashes + i) * 9973) % erNodes
			events = append(events, sim.Event{Round: r, Op: sim.OpCrash, U: v, For: 1})
		}
	}
	sch := sim.Schedule{Horizon: rounds, Events: events}
	recorded := map[int][2]float64{4: {23173, 185385}, 8: {41989, 335913}}
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("churn=1%%/delta/shards=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			plan := benchPlan(b, csr, k)
			b.ResetTimer()
			var steadyNs, steadyMsgs float64
			var es partition.ExchangeStats
			for i := 0; i < b.N; i++ {
				_, st, ex, err := partition.Run(plan, init, maxStep,
					sim.NewPerturber(erGraph(), 3, sch),
					runtime.WithMaxRounds(rounds),
					runtime.WithDelta(),
					runtime.WithParallelism(k))
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
				es = ex
			}
			checkExchange(b, es, recorded[k][0], recorded[k][1])
			b.ReportMetric(steadyNs, "steady-ns/round")
			b.ReportMetric(steadyMsgs, "steady-msgs/round")
			b.ReportMetric(es.ValuesPerRound(), "values/round")
			b.ReportMetric(es.BytesPerRound(), "bytes/round")
		})
	}
}

const (
	er10mNodes  = 10_000_000
	er10mDegree = 6
)

var (
	er10mOnce sync.Once
	er10mCSR  *graph.CSR
)

// er10m builds the 10M-node sparse ER snapshot once per process (the
// Batagelj–Brandes generator is O(n+m), so this is seconds, not hours).
func er10m() *graph.CSR {
	er10mOnce.Do(func() {
		g := gen.SparseErdosRenyi(stats.NewRand(4), er10mNodes, er10mDegree/float64(er10mNodes-1))
		er10mCSR = g.Freeze()
	})
	return er10mCSR
}

// BenchmarkPartitionedER10M is the scale target: a 10M-node / ~30M-edge
// sparse ER graph, priced on 8 degree-balanced shards over a 12-round
// distributed-max horizon in delta mode. One op is plan build plus the
// metered run. Run with -benchtime 1x; rounds/sec is the unsharded delta
// kernel's throughput with metering, the cut/ghost metrics record the
// partition quality at this scale, and bytes/round is pinned to the
// recorded trajectory.
func BenchmarkPartitionedER10M(b *testing.B) {
	csr := er10m()
	init := func(v int) int { return v * 2654435761 % 1_000_003 }
	b.ReportAllocs()
	b.ResetTimer()
	var roundsPerSec, cutFrac, ghostFrac float64
	var es partition.ExchangeStats
	for i := 0; i < b.N; i++ {
		plan, err := partition.New(csr, 8, partition.WithStrategy(partition.DegreeBalanced))
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		_, st, ex, err := partition.Run(plan, init, maxStep, nil,
			runtime.WithMaxRounds(12), runtime.WithDelta(), runtime.WithParallelism(8))
		if err != nil {
			b.Fatal(err)
		}
		if st.Rounds == 0 {
			b.Fatal("no rounds executed")
		}
		roundsPerSec = float64(st.Rounds) / time.Since(start).Seconds()
		ps := plan.Stats()
		cutFrac, ghostFrac = ps.CutFraction, ps.GhostFraction
		es = ex
	}
	// Only bytes/round was recorded for this leg.
	if by := math.Round(es.BytesPerRound()); by != 163027079 {
		b.Fatalf("exchange %.0f bytes/round; recorded 163027079", by)
	}
	b.ReportMetric(roundsPerSec, "rounds/sec")
	b.ReportMetric(cutFrac, "cut-frac")
	b.ReportMetric(ghostFrac, "ghost-frac")
	b.ReportMetric(es.BytesPerRound(), "bytes/round")
}
