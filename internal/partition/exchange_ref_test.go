package partition_test

import (
	"fmt"
	"reflect"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/partition"
	rt "structura/internal/runtime"
	"structura/internal/sim"
	"structura/internal/stats"
)

// hopInit/hopStep: distance-vector-style process whose state depends on every
// earlier round, so changes keep crossing shard boundaries for several
// rounds.
const hopInf = 1 << 20

func hopInit(v int) int {
	if v == 0 {
		return 0
	}
	return hopInf
}

func hopStep(v int, self int, nbrs []int) (int, bool) {
	if v == 0 {
		return 0, false
	}
	best := hopInf
	for _, d := range nbrs {
		if d+1 < best {
			best = d + 1
		}
	}
	return best, best != self
}

// churnPerturber is a deterministic fault timeline: round-keyed drops plus a
// topology swap and a restart at fixed rounds. State derives only from the
// round number, so a resumed run's fast-forward replays it identically.
type churnPerturber struct {
	alt *graph.CSR
}

func (p *churnPerturber) BeforeRound(round int, g *graph.CSR) rt.Perturbation {
	var per rt.Perturbation
	if round == 3 && p.alt != nil {
		per.Topology = p.alt
	}
	if round == 4 {
		restart := make([]bool, g.N())
		restart[2%g.N()] = true
		restart[g.N()-1] = true
		per.Restart = restart
	}
	if round <= 6 {
		per.Drop = func(from, to int) bool { return (from*31+to*17+round)%5 == 0 }
	}
	return per
}

func (p *churnPerturber) Active(round int) bool { return round <= 6 }

// meteredRun is the system under test: the hop process on plan's graph with
// the exchange it implies.
func meteredRun(plan *partition.Plan, pert rt.Perturber, opts ...rt.Option) ([]int, rt.Stats, partition.ExchangeStats, error) {
	return partition.Run(plan, hopInit, hopStep, pert, opts...)
}

// roundRecord is what one executed round hands the brute-force recount: the
// topology in force, the nodes the perturber restarted before the step, and
// the nodes whose step reported a change.
type roundRecord struct {
	topo      *graph.CSR
	restarted []int
	changed   []int
}

// recorder wraps a perturber to log each round's restarts and topology. The
// last BeforeRound call before a round's step is the one that applies to it.
type recorder struct {
	inner     rt.Perturber
	topo      *graph.CSR
	restarted []int
}

func (r *recorder) BeforeRound(round int, g *graph.CSR) rt.Perturbation {
	var p rt.Perturbation
	if r.inner != nil {
		p = r.inner.BeforeRound(round, g)
	}
	if p.Topology != nil {
		r.topo = p.Topology
	}
	r.restarted = r.restarted[:0]
	for v, rs := range p.Restart {
		if rs {
			r.restarted = append(r.restarted, v)
		}
	}
	return p
}

func (r *recorder) Active(round int) bool { return r.inner != nil && r.inner.Active(round) }

// recordRun runs the hop process on the plain kernel and logs every round.
// With a nil perturber the run is clean and every round logs g.
func recordRun(t testing.TB, g *graph.CSR, pert rt.Perturber, opts ...rt.Option) ([]int, []roundRecord) {
	t.Helper()
	rec := &recorder{inner: pert, topo: g}
	changed := make([]bool, g.N())
	step := func(v int, self int, nbrs []int) (int, bool) {
		s, ch := hopStep(v, self, nbrs)
		if ch {
			changed[v] = true
		}
		return s, ch
	}
	var log []roundRecord
	obs := func(rt.RoundStats) {
		r := roundRecord{topo: rec.topo, restarted: append([]int(nil), rec.restarted...)}
		for v, c := range changed {
			if c {
				r.changed = append(r.changed, v)
				changed[v] = false
			}
		}
		log = append(log, r)
	}
	all := append(append([]rt.Option(nil), opts...), rt.WithObserver(obs))
	if pert != nil {
		all = append(all, rt.WithPerturber(rec))
	}
	states, _, err := rt.RunCSR(g, hopInit, step, all...)
	if err != nil {
		t.Fatalf("recording run: %v", err)
	}
	return states, log
}

// bruteOwner finds the shard owning v by a linear scan of the bounds.
func bruteOwner(bounds []int32, v int) int {
	for s := 0; s+1 < len(bounds); s++ {
		if v >= int(bounds[s]) && v < int(bounds[s+1]) {
			return s
		}
	}
	panic(fmt.Sprintf("node %d outside bounds %v", v, bounds))
}

// recount is the brute-force exchange oracle: per round, every restarted
// node and every changed node ships its value once to each other shard
// holding a reader of it (a node u with the value's node in u's neighbor
// row) in that round's topology. Readers are collected with maps, from
// scratch, every round.
func recount(bounds []int32, log []roundRecord) []int {
	out := make([]int, len(log))
	for i, r := range log {
		readers := make(map[int]map[int]bool)
		for u := 0; u < r.topo.N(); u++ {
			su := bruteOwner(bounds, u)
			for _, w := range r.topo.Neighbors(u) {
				if bruteOwner(bounds, int(w)) == su {
					continue
				}
				if readers[int(w)] == nil {
					readers[int(w)] = make(map[int]bool)
				}
				readers[int(w)][su] = true
			}
		}
		for _, v := range r.restarted {
			out[i] += len(readers[v])
		}
		for _, v := range r.changed {
			out[i] += len(readers[v])
		}
	}
	return out
}

// wantStats folds per-round value counts into the ExchangeStats a run must
// report for int-valued states.
func wantStats(perRound []int) partition.ExchangeStats {
	var es partition.ExchangeStats
	for _, v := range perRound {
		es.Rounds++
		es.Values += int64(v)
		es.Bytes += int64(v) * 8
		if v > es.MaxRoundValues {
			es.MaxRoundValues = v
		}
	}
	return es
}

// checkAgainstRecount runs plan's graph once on the plain kernel with
// recording and once metered, and requires identical states and an exchange
// equal to the brute-force recount.
func checkAgainstRecount(t testing.TB, name string, plan *partition.Plan, g *graph.CSR, newPert func() rt.Perturber, opts ...rt.Option) {
	t.Helper()
	var recPert, runPert rt.Perturber
	if newPert != nil {
		recPert, runPert = newPert(), newPert()
	}
	wantStates, log := recordRun(t, g, recPert, opts...)
	want := wantStats(recount(plan.Bounds(), log))
	states, st, es, err := meteredRun(plan, runPert, opts...)
	if err != nil {
		t.Fatalf("%s: metered run: %v", name, err)
	}
	if !reflect.DeepEqual(states, wantStates) {
		t.Fatalf("%s: metered run states diverge from the recording run", name)
	}
	if st.Rounds != len(log) {
		t.Fatalf("%s: metered run took %d rounds, recording run %d", name, st.Rounds, len(log))
	}
	if es != want {
		t.Fatalf("%s: exchange %+v, brute-force recount %+v", name, es, want)
	}
}

func randomDirected(t testing.TB, n, edges int, seed int64) *graph.Graph {
	t.Helper()
	r := stats.NewRand(seed)
	dg := graph.NewDirected(n)
	for i := 0; i < edges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !dg.HasEdge(u, v) {
			if err := dg.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Node 0 reaches something, so the hop wave propagates.
	if !dg.HasEdge(0, 1) {
		if err := dg.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	return dg
}

// churned returns a copy of g with one edge removed and one added, frozen.
func churned(t testing.TB, g *graph.Graph) *graph.CSR {
	t.Helper()
	alt := g.Clone()
	alt.RemoveEdge(0, alt.Neighbors(0)[0])
	for u := 5; u < g.N(); u++ {
		w := (u * 7) % g.N()
		if u != w && !alt.HasEdge(u, w) {
			if err := alt.AddEdge(u, w); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	return alt.Freeze()
}

// TestExchangeMatchesBruteForce pins the exchange accounting to an
// independent recount on undirected and directed graphs, both strategies,
// several shard counts, full and delta mode, clean and perturbed schedules
// (scripted restarts and a topology swap; random crashes, restarts, loss and
// edge churn).
func TestExchangeMatchesBruteForce(t *testing.T) {
	und := gen.SparseErdosRenyi(stats.NewRand(7), 72, 0.08)
	dir := randomDirected(t, 64, 3*64, 11)
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"undirected", und}, {"directed", dir}} {
		c := gc.g.Freeze()
		alt := churned(t, gc.g)
		schedules := map[string]func() rt.Perturber{
			"clean":    nil,
			"scripted": func() rt.Perturber { return &churnPerturber{alt: alt} },
			"random": func() rt.Perturber {
				return sim.NewPerturber(gc.g, 5, sim.Schedule{Horizon: 10, ChurnAdd: 2, ChurnRemove: 2,
					MsgLoss: 0.05, CrashProb: 0.04, Downtime: 2})
			},
		}
		for _, k := range []int{2, 3, 5} {
			for _, strat := range []partition.Strategy{partition.Contiguous, partition.DegreeBalanced} {
				plan, err := partition.New(c, k, partition.WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				for sname, newPert := range schedules {
					for _, delta := range []bool{false, true} {
						opts := []rt.Option{rt.WithMaxRounds(24), rt.WithParallelism(2)}
						if delta {
							opts = append(opts, rt.WithDelta())
						}
						name := fmt.Sprintf("%s/k=%d/%v/%s/delta=%v", gc.name, k, strat, sname, delta)
						checkAgainstRecount(t, name, plan, c, newPert, opts...)
					}
				}
			}
		}
	}
}

// TestRecountSanity keeps the oracle honest on a hand-checkable case: an
// 8-cycle split in two halves has four boundary nodes, each read by exactly
// one other shard, so a round in which every node changes ships four values.
func TestRecountSanity(t *testing.T) {
	g := graph.New(8)
	for v := 0; v < 8; v++ {
		if err := g.AddEdge(v, (v+1)%8); err != nil {
			t.Fatal(err)
		}
	}
	c := g.Freeze()
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	got := recount([]int32{0, 4, 8}, []roundRecord{{topo: c, changed: all}, {topo: c, restarted: []int{0}, changed: []int{0, 1}}})
	if !reflect.DeepEqual(got, []int{4, 2}) {
		t.Fatalf("recount = %v, want [4 2]", got)
	}
}
