package heal

import (
	"testing"

	"structura/internal/graph"
	"structura/internal/sim"
)

// FuzzExactDetection drives the distance-vector and hypercube engines, over
// one shared graph as the serving layer runs them, through batches decoded
// from a byte tape. Every CheckLocal of every heal must find what the
// detector finds over the closed neighborhoods of its input (nearDetect),
// and after each HealBatch the invariant sweep must be clean. Byte layout:
// [0] node count (2 + mod 63, a ring to start from), [1] the safety-level
// dimension (1 + mod 6), [2] the faulty stride (2 + mod 8), then op triples
// (op, a, b) where op selects the add of (a, b), the removal of the edge
// numbered a·256+b among the current edges, the removal and re-add of that
// edge, or the end of a batch.
func FuzzExactDetection(f *testing.F) {
	f.Add([]byte{30, 3, 3, 0, 0, 15, 0, 4, 20, 3, 0, 0, 1, 0, 0, 1, 0, 7, 3, 0, 0})
	f.Add([]byte{62, 5, 5, 0, 0, 32, 0, 10, 40, 0, 20, 50, 3, 0, 0, 1, 0, 3, 2, 0, 9, 1, 0, 41, 3, 0, 0})
	f.Add([]byte{8, 1, 0, 1, 0, 0, 1, 0, 1, 3, 0, 0, 0, 0, 4, 0, 2, 6, 2, 0, 0, 3, 0, 0})
	// A batch that removes most of a small ring: partitions and regrowth.
	f.Add([]byte{10, 2, 1, 1, 0, 0, 1, 0, 2, 1, 0, 4, 1, 0, 1, 3, 0, 0, 0, 0, 5, 0, 3, 8, 0, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%63
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.TryAddEdge(v, (v+1)%n, 1)
		}
		dv, err := newDistVecEngineOver(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs := []*recordingEngine{
			{Engine: dv},
			{Engine: newCubeEngineOver(g, everyKth(n, 2+int(data[2])%8), 1+int(data[1])%6)},
		}
		var events []sim.Event
		healAll := func() {
			for _, rec := range recs {
				rec.reset()
				sup := &Supervisor{Engine: rec, Budget: Budget{MaxRounds: 4 * n}}
				rep, err := sup.HealBatch(events)
				if err != nil {
					t.Fatal(err)
				}
				if rec.mismatch != "" {
					t.Fatalf("%s: %s", rec.Name(), rec.mismatch)
				}
				if len(rep.Standing) != 0 {
					t.Fatalf("%s: %d standing violation(s), first %s", rec.Name(), len(rep.Standing), rep.Standing[0])
				}
				if left := sup.Sweep(); len(left) != 0 {
					t.Fatalf("%s: sweep after heal: %d violation(s), first %s", rec.Name(), len(left), left[0])
				}
			}
			events = events[:0]
		}
		apply := func(e sim.Event) {
			e.ApplyEdge(g)
			events = append(events, e)
		}
		for i := 3; i+2 < len(data); i += 3 {
			op, a, b := data[i]%4, int(data[i+1]), int(data[i+2])
			if op == 3 {
				healAll()
				continue
			}
			if op == 0 {
				apply(sim.Event{Op: sim.OpAddEdge, U: a % n, V: b % n})
				continue
			}
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[(a<<8|b)%len(edges)]
			apply(sim.Event{Op: sim.OpRemoveEdge, U: e.From, V: e.To})
			if op == 2 {
				apply(sim.Event{Op: sim.OpAddEdge, U: e.To, V: e.From})
			}
		}
		healAll()
	})
}
