package graph

import (
	"fmt"
	"slices"
	"testing"
)

// samePaged fails t unless p answers every read exactly like c, rows in
// order, including the out-of-range nodes on either side.
func samePaged(t *testing.T, what string, p *PagedCSR, c *CSR) {
	t.Helper()
	if p.N() != c.N() || p.M() != c.M() || p.Directed() != c.Directed() {
		t.Fatalf("%s: N/M/directed %d/%d/%v, Freeze %d/%d/%v",
			what, p.N(), p.M(), p.Directed(), c.N(), c.M(), c.Directed())
	}
	for v := -1; v <= c.N(); v++ {
		if p.Degree(v) != c.Degree(v) || !slices.Equal(p.Neighbors(v), c.Neighbors(v)) ||
			!slices.Equal(p.NeighborWeights(v), c.NeighborWeights(v)) {
			t.Fatalf("%s: row %d is %v %v, Freeze %v %v",
				what, v, p.Neighbors(v), p.NeighborWeights(v), c.Neighbors(v), c.NeighborWeights(v))
		}
	}
}

// TestFreezeFromSharesUntouchedPages pins the sharing contract: a snapshot
// rebuilds exactly the pages holding a touched node and shares every other
// page pointer with prev, and a change of node count rebuilds them all.
func TestFreezeFromSharesUntouchedPages(t *testing.T) {
	g := New(5*pageSize - 10) // five pages, the last one partial
	for v := 0; v+1 < g.N(); v++ {
		g.AddEdge(v, v+1)
	}
	p0 := g.FreezeFrom(nil, nil)
	c0 := g.Freeze()
	samePaged(t, "full build", p0, c0)

	g.AddWeightedEdge(3, 3*pageSize+1, 2.5)
	p1 := g.FreezeFrom(p0, []int{3, 3*pageSize + 1, 3, -1, g.N()})
	samePaged(t, "after one add", p1, g.Freeze())
	for i := range p1.pages {
		rebuilt := i == 0 || i == 3
		if shared := p1.pages[i] == p0.pages[i]; shared == rebuilt {
			t.Fatalf("page %d: shared=%v, want rebuilt=%v", i, shared, rebuilt)
		}
	}
	samePaged(t, "prev after the next snapshot", p0, c0)

	p2 := g.FreezeFrom(p1, nil)
	for i := range p2.pages {
		if p2.pages[i] != p1.pages[i] {
			t.Fatalf("page %d rebuilt with nothing touched", i)
		}
	}

	g.AddNode()
	p3 := g.FreezeFrom(p2, nil)
	samePaged(t, "after AddNode", p3, g.Freeze())
	for i := range p2.pages {
		if p3.pages[i] == p2.pages[i] {
			t.Fatalf("page %d shared across a change of node count", i)
		}
	}
}

// FuzzFreezeFrom runs a mutation program split into batches and takes a
// snapshot after each one with that batch's endpoints as touched. Every
// snapshot must equal Freeze at its own moment, both when it is taken and
// after the whole program ran, so a shared page never leaks a later
// mutation. Byte layout: [0] initial node count (mod 200), [1]
// directedness, then op triples (op, u, v) where op selects add,
// weighted add, remove, end of batch, or a new node.
func FuzzFreezeFrom(f *testing.F) {
	f.Add([]byte{130, 0, 0, 1, 2, 0, 70, 129, 3, 0, 0, 2, 1, 2, 3, 0, 0})
	f.Add([]byte{199, 1, 0, 5, 190, 1, 190, 5, 3, 0, 0, 4, 0, 0, 0, 199, 3})
	f.Add([]byte{64, 0, 0, 63, 0, 3, 0, 0, 4, 0, 0, 0, 64, 1, 3, 0, 0, 2, 63, 0})
	f.Add([]byte{0, 0, 4, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 200
		var g *Graph
		if data[1]&1 == 1 {
			g = NewDirected(n)
		} else {
			g = New(n)
		}
		type taken struct {
			p *PagedCSR
			c *CSR
		}
		history := []taken{{g.FreezeFrom(nil, nil), g.Freeze()}}
		var touched []int
		snap := func() {
			prev := history[len(history)-1]
			p, c := g.FreezeFrom(prev.p, touched), g.Freeze()
			samePaged(t, "snapshot", p, c)
			samePaged(t, "previous snapshot", prev.p, prev.c)
			history = append(history, taken{p, c})
			touched = touched[:0]
		}
		for i := 2; i+2 < len(data); i += 3 {
			op, u, v := data[i]%5, int(data[i+1]), int(data[i+2])
			if n := g.N(); n > 0 {
				u, v = u%n, v%n
			}
			switch op {
			case 0:
				g.TryAddEdge(u, v, 1)
			case 1:
				g.AddWeightedEdge(u, v, float64(v)+0.5) // parallel edges are part of the contract
			case 2:
				g.RemoveEdge(u, v)
			case 3:
				snap()
				continue
			case 4:
				if g.N() < 255 {
					g.AddNode()
				}
				continue
			}
			touched = append(touched, u, v)
		}
		snap()
		for k, h := range history {
			samePaged(t, fmt.Sprintf("snapshot %d at the end", k), h.p, h.c)
		}
	})
}
