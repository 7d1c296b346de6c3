package runtime

import (
	"strings"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
)

// testPerturber drives the perturbed kernel path from tests without pulling
// in the sim package: a fixed perturbation for rounds <= until.
type testPerturber struct {
	until int
	per   Perturbation
}

func (p *testPerturber) BeforeRound(round int, g *graph.CSR) Perturbation {
	if round <= p.until {
		return p.per
	}
	return Perturbation{}
}

func (p *testPerturber) Active(round int) bool { return round <= p.until }

// TestStepPanicReported: a panicking step must abort the run with an error
// naming the offending node — on the sequential path, the sharded path, and
// the perturbed path — instead of deadlocking the barrier or killing the
// process from a worker goroutine. Shards are whole 64-node words, so the
// path is long enough for the sharded cases to run on several.
func TestStepPanicReported(t *testing.T) {
	g := gen.Path(200)
	init := func(v int) int { return v }
	boom := func(v int, self int, nbrs []int) (int, bool) {
		if v == 7 {
			panic("kaboom")
		}
		return self, false
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithParallelism(1)}},
		{"sharded", []Option{WithParallelism(4)}},
		{"perturbed", []Option{WithParallelism(1), WithPerturber(&testPerturber{until: 1})}},
		{"perturbed-sharded", []Option{WithParallelism(4), WithPerturber(&testPerturber{until: 1})}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			states, _, err := Run(g, init, boom, append([]Option{WithMaxRounds(5)}, c.opts...)...)
			if err == nil {
				t.Fatal("panicking step did not surface an error")
			}
			if !strings.Contains(err.Error(), "node 7") {
				t.Fatalf("error %q does not name the panicking node", err)
			}
			if len(states) != g.N() {
				t.Fatalf("partial states have length %d, want %d", len(states), g.N())
			}
		})
	}
}

// TestStepPanicDeterministicNode: when several shards panic in the same
// round, the reported node comes from the lowest shard, so the error is
// stable across executions. Shards are whole 64-node words, so the path is
// long enough for four workers to get one each.
func TestStepPanicDeterministicNode(t *testing.T) {
	g := gen.Path(256)
	boom := func(v int, self int, nbrs []int) (int, bool) {
		if v == 2 || v == 200 {
			panic("both shards")
		}
		return self, false
	}
	for i := 0; i < 10; i++ {
		_, _, err := Run(g, func(v int) int { return v }, boom, WithParallelism(4), WithMaxRounds(3))
		if err == nil || !strings.Contains(err.Error(), "node 2") {
			t.Fatalf("run %d: error %v, want the lowest panicking node (2)", i, err)
		}
	}
}

// TestObserverPanicReported: a panicking observer aborts the run with a
// descriptive error; states from the completed round are preserved.
func TestObserverPanicReported(t *testing.T) {
	g := gen.Path(6)
	for _, perturbed := range []bool{false, true} {
		opts := []Option{
			WithMaxRounds(10),
			WithObserver(func(rs RoundStats) { panic("bad hook") }),
		}
		if perturbed {
			opts = append(opts, WithPerturber(&testPerturber{until: 1}))
		}
		states, stats, err := Run(g,
			func(v int) int { return v },
			func(v int, self int, nbrs []int) (int, bool) { return self, false },
			opts...)
		if err == nil {
			t.Fatal("panicking observer did not surface an error")
		}
		if !strings.Contains(err.Error(), "observer panicked at round 1") {
			t.Fatalf("error %q does not name the round", err)
		}
		if stats.Rounds != 1 {
			t.Fatalf("stats counted %d rounds, want 1", stats.Rounds)
		}
		if len(states) != g.N() {
			t.Fatalf("states have length %d, want %d", len(states), g.N())
		}
	}
}

// TestPerturberNodeCountGuard: a perturber that swaps in a topology with a
// different node count is a programming error the kernel must reject.
func TestPerturberNodeCountGuard(t *testing.T) {
	g := gen.Path(5)
	wrong := gen.Path(6).Freeze()
	p := &testPerturber{until: 3, per: Perturbation{Topology: wrong}}
	_, _, err := Run(g,
		func(v int) int { return v },
		func(v int, self int, nbrs []int) (int, bool) { return self, false },
		WithPerturber(p), WithMaxRounds(5))
	if err == nil || !strings.Contains(err.Error(), "node count") {
		t.Fatalf("node-count mismatch not rejected: %v", err)
	}
}

// TestKHopZeroEdgeCases pins the k=0 contract across degenerate graphs: the
// zero-hop horizon of every node is empty, never nil-vs-empty inconsistent
// with the graph's size.
func TestKHopZeroEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(0)},
		{"single", graph.New(1)},
		{"isolated", graph.New(4)},
		{"path", gen.Path(6)},
		{"ring", gen.Ring(5)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			hoods, err := KHopNeighborhoods(c.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(hoods) != c.g.N() {
				t.Fatalf("got %d neighborhoods for %d nodes", len(hoods), c.g.N())
			}
			for v, h := range hoods {
				if len(h) != 0 {
					t.Errorf("node %d: k=0 horizon %v, want empty", v, h)
				}
			}
		})
	}
	// k beyond the diameter must equal the connected component, still
	// excluding the node itself.
	hoods, err := KHopNeighborhoods(gen.Path(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range hoods {
		if len(h) != 3 {
			t.Errorf("node %d: k=100 horizon %v, want the other 3 nodes", v, h)
		}
	}
}
