package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"structura/internal/stats"
)

// pagedDiff describes the first read on which p differs from c, rows in
// order, including the out-of-range nodes on either side; "" if none.
func pagedDiff(p *PagedCSR, c *CSR) string {
	if p.N() != c.N() || p.M() != c.M() || p.Directed() != c.Directed() {
		return fmt.Sprintf("N/M/directed %d/%d/%v, Freeze %d/%d/%v",
			p.N(), p.M(), p.Directed(), c.N(), c.M(), c.Directed())
	}
	for v := -1; v <= c.N(); v++ {
		if p.Degree(v) != c.Degree(v) || !slices.Equal(p.Neighbors(v), c.Neighbors(v)) ||
			!slices.Equal(p.NeighborWeights(v), c.NeighborWeights(v)) {
			return fmt.Sprintf("row %d is %v %v, Freeze %v %v",
				v, p.Neighbors(v), p.NeighborWeights(v), c.Neighbors(v), c.NeighborWeights(v))
		}
	}
	return ""
}

// samePaged fails t unless p answers every read exactly like c.
func samePaged(t *testing.T, what string, p *PagedCSR, c *CSR) {
	t.Helper()
	if d := pagedDiff(p, c); d != "" {
		t.Fatalf("%s: %s", what, d)
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

// TestFreezeFromPatchesUntouchedRows pins the row patching: a page with
// one touched row is rebuilt, and every other row of it carries prev's
// bytes exactly, weights compared bit for bit.
func TestFreezeFromPatchesUntouchedRows(t *testing.T) {
	g := New(3 * pageSize)
	for v := pageSize; v+1 < 2*pageSize; v++ {
		g.AddWeightedEdge(v, v+1, float64(v)/3)
	}
	g.AddWeightedEdge(pageSize+2, 2*pageSize+5, math.Copysign(0, -1))
	p0 := g.FreezeFrom(nil, nil)

	u, v := pageSize+7, 5
	g.AddWeightedEdge(u, v, 0.25)
	p1 := g.FreezeFrom(p0, []int{v, u})
	samePaged(t, "after one add", p1, g.Freeze())
	if p1.pages[1] == p0.pages[1] {
		t.Fatal("the page of a touched row is shared with prev")
	}
	bits := func(ws []float64) []uint64 {
		out := make([]uint64, len(ws))
		for i, w := range ws {
			out[i] = math.Float64bits(w)
		}
		return out
	}
	for r := pageSize; r < 2*pageSize; r++ {
		if r == u {
			continue
		}
		if !slices.Equal(p1.Neighbors(r), p0.Neighbors(r)) ||
			!slices.Equal(bits(p1.NeighborWeights(r)), bits(p0.NeighborWeights(r))) {
			t.Fatalf("untouched row %d is %v %v, prev's %v %v", r,
				p1.Neighbors(r), p1.NeighborWeights(r), p0.Neighbors(r), p0.NeighborWeights(r))
		}
	}
}

// TestFreezeFromConcurrentReaders walks the rows of each published
// snapshot from several goroutines while the writer mutates the graph and
// takes the next snapshot from the one they read. Under -race it catches
// any write to a page the snapshots share; without it, any torn row.
func TestFreezeFromConcurrentReaders(t *testing.T) {
	type taken struct {
		p *PagedCSR
		c *CSR
	}
	g := New(10*pageSize + 3)
	r := stats.NewRand(5)
	for k := 0; k < 3*g.N(); k++ {
		g.TryAddEdge(r.Intn(g.N()), r.Intn(g.N()), 1)
	}
	var cur atomic.Pointer[taken]
	cur.Store(&taken{g.FreezeFrom(nil, nil), g.Freeze()})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if h := cur.Load(); pagedDiff(h.p, h.c) != "" {
					t.Errorf("reader: %s", pagedDiff(h.p, h.c))
					return
				}
			}
		}()
	}
	touched := make([]int, 0, 20)
	for range 200 {
		touched = touched[:0]
		for len(touched) < 20 {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			if r.Intn(2) == 0 && g.RemoveEdge(u, v) || g.TryAddEdge(u, v, float64(u)) {
				touched = append(touched, u, v)
			}
		}
		prev := cur.Load()
		cur.Store(&taken{g.FreezeFrom(prev.p, touched), g.Freeze()})
	}
	stop.Store(true)
	wg.Wait()
}

// FuzzFreezeFrom runs a mutation program split into batches and takes a
// snapshot after each one with that batch's endpoints as touched, in
// program order and followed by two out-of-range entries. Every snapshot
// must equal Freeze at its own moment, both when it is taken and after the
// whole program ran, so a shared or patched page never leaks a later
// mutation, and FreezeFrom must leave touched as it was. Byte layout: [0]
// initial node count (mod 200), [1] directedness, then op triples (op, u,
// v) where op selects add, weighted add, remove, end of batch, or a new
// node.
func FuzzFreezeFrom(f *testing.F) {
	f.Add([]byte{130, 0, 0, 1, 2, 0, 70, 129, 3, 0, 0, 2, 1, 2, 3, 0, 0})
	f.Add([]byte{199, 1, 0, 5, 190, 1, 190, 5, 3, 0, 0, 4, 0, 0, 0, 199, 3})
	f.Add([]byte{64, 0, 0, 63, 0, 3, 0, 0, 4, 0, 0, 0, 64, 1, 3, 0, 0, 2, 63, 0})
	f.Add([]byte{0, 0, 4, 0, 0, 3, 0, 0})
	// Every row of page 1 touched, then half of them again.
	f.Add([]byte{40, 0, 0, 16, 17, 0, 18, 19, 1, 20, 21, 0, 22, 23, 0, 24, 25, 1, 26, 27,
		0, 28, 29, 0, 30, 31, 3, 0, 0, 2, 16, 17, 2, 20, 21, 1, 24, 3, 3, 0, 0})
	// The first and last row of a page, in both directions.
	f.Add([]byte{48, 1, 0, 16, 31, 1, 31, 47, 0, 32, 16, 3, 0, 0, 2, 16, 31, 0, 31, 16, 3, 0, 0})
	// The short last page: rows 32..36 of a 37-node graph, then a new node.
	f.Add([]byte{37, 0, 0, 36, 33, 1, 32, 36, 3, 0, 0, 0, 36, 0, 2, 32, 36, 3, 0, 0,
		4, 0, 0, 0, 37, 36, 3, 0, 0})
	// Duplicate entries: one row pair touched by an add, a remove and a
	// weighted add in the same batch.
	f.Add([]byte{20, 0, 0, 5, 6, 2, 5, 6, 1, 6, 5, 0, 5, 6, 3, 0, 0})
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
			touched = append(touched, -1, g.N())
			asGiven := slices.Clone(touched)
			p, c := g.FreezeFrom(prev.p, touched), g.Freeze()
			if !slices.Equal(touched, asGiven) {
				t.Fatalf("FreezeFrom reordered touched: %v, given %v", touched, asGiven)
			}
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
