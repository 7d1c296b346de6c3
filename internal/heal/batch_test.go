package heal

import (
	"testing"

	"structura/internal/graph"
	"structura/internal/sim"
)

// TestHealBatchMatchesApplyBatch pins the notification contract for every
// engine: a batch its owner applied to Live() as a whole, then notified
// event by event through HealBatch — rejected events included — heals to a
// valid structure over the same topology ApplyBatch reaches applying and
// notifying one event at a time. The batch holds a duplicate add, a
// missing remove, a remove-then-re-add and a fresh add of the pair the
// missing remove named.
func TestHealBatchMatchesApplyBatch(t *testing.T) {
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			byEvent, err := NewEngine(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := NewEngine(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			g := whole.Live()
			e := g.Edges()[len(g.Edges())/2]
			u, v := nonEdge(g)
			events := []sim.Event{
				{Op: sim.OpAddEdge, U: e.From, V: e.To},
				{Op: sim.OpRemoveEdge, U: u, V: v},
				{Op: sim.OpRemoveEdge, U: e.From, V: e.To},
				{Op: sim.OpAddEdge, U: e.To, V: e.From},
				{Op: sim.OpAddEdge, U: u, V: v},
			}
			if _, err := (&Supervisor{Engine: byEvent}).ApplyBatch(events); err != nil {
				t.Fatal(err)
			}
			for _, ev := range events {
				ev.ApplyEdge(g)
			}
			sup := &Supervisor{Engine: whole}
			if _, err := sup.HealBatch(events); err != nil {
				t.Fatal(err)
			}
			if !sameEdges(byEvent.Live(), g) {
				t.Fatal("topologies diverged")
			}
			if left := sup.Sweep(); len(left) != 0 {
				t.Fatalf("%d standing violation(s) after HealBatch, first %s", len(left), left[0])
			}
		})
	}
}

// nonEdge returns the first node pair (u<v) with no edge between them.
func nonEdge(g *graph.Graph) (int, int) {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	panic("complete graph")
}

// sameEdges reports whether a and b hold the same undirected edge set.
func sameEdges(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.From, e.To) {
			return false
		}
	}
	return true
}
