package graph

import (
	"fmt"
	"slices"
)

// pageShift fixes the page size of a PagedCSR: 16 rows per page, so a
// 100k-node snapshot is 6,250 page pointers (50 KB) and a 256-op batch
// patches at most 512 of them.
const (
	pageShift = 4
	pageSize  = 1 << pageShift
)

// page is one fixed block of pageSize consecutive rows laid out as a small
// CSR: row i of the block is targets[off[i]:off[i+1]], weights parallel.
// The offsets sit inline so a row lookup costs the page pointer load plus
// one load inside the page. Rows past the graph's last node are empty.
type page struct {
	off     [pageSize + 1]int32
	targets []int32
	weights []float64
}

// emptyPage is the page of pageSize empty rows: patching every row of it
// builds a page from the graph alone.
var emptyPage page

// PagedCSR is an immutable snapshot of a Graph's forward adjacency split
// into fixed pages of pageSize rows. It answers N, M, Directed, Degree,
// Neighbors and NeighborWeights exactly like the CSR frozen at the same
// moment, rows in adjacency order. Pages are never mutated after they are
// built, so successive snapshots share every page whose rows did not
// change: FreezeFrom rebuilds only the pages a batch touched. All methods
// are safe for concurrent use.
type PagedCSR struct {
	directed bool
	n, m     int
	pages    []*page
}

// FreezeFrom snapshots g as a PagedCSR that shares every page of prev
// holding no touched node. It copies prev's page pointers and patches each
// page containing a node of touched: the page's untouched rows are copied
// from prev's page, and only its touched rows are read from g.
// Out-of-range and repeated entries are ignored, and touched is not
// modified. Every page is built from g when prev is nil or differs from g
// in node count or directedness.
//
// The caller guarantees both the sharing and the patching are sound:
// every adjacency change to g since prev was taken lies on a row of some
// touched node. An edge mutation changes the rows of its endpoints only,
// so passing both endpoints of every mutation applied since prev suffices.
// Like Freeze, it panics when g exceeds the int32 layout.
func (g *Graph) FreezeFrom(prev *PagedCSR, touched []int) *PagedCSR {
	n := len(g.adj)
	if err := CheckCSRBounds(n, 0); err != nil {
		panic(fmt.Sprintf("graph: cannot freeze to CSR: %v", err))
	}
	p := &PagedCSR{directed: g.directed, n: n, m: g.edges, pages: make([]*page, (n+pageSize-1)>>pageShift)}
	if prev == nil || prev.n != n || prev.directed != g.directed {
		for i := range p.pages {
			p.pages[i] = g.patchPage(&emptyPage, i<<pageShift, 1<<pageSize-1)
		}
		return p
	}
	copy(p.pages, prev.pages)
	rows := make([]int, 0, len(touched))
	for _, v := range touched {
		if v >= 0 && v < n {
			rows = append(rows, v)
		}
	}
	slices.Sort(rows)
	for k := 0; k < len(rows); {
		i := rows[k] >> pageShift
		var mask uint64
		for ; k < len(rows) && rows[k]>>pageShift == i; k++ {
			mask |= 1 << (rows[k] & (pageSize - 1))
		}
		p.pages[i] = g.patchPage(prev.pages[i], i<<pageShift, mask)
	}
	return p
}

// patchPage lays out the page whose first row is node lo: bit i of mask
// selects row lo+i to be read from g, and every other row is copied from
// old, the page that held the same rows before, one copy per run of
// unselected rows.
func (g *Graph) patchPage(old *page, lo int, mask uint64) *page {
	rows := g.adj[lo:min(lo+pageSize, len(g.adj))]
	half := int(old.off[pageSize])
	for i, lst := range rows {
		if mask>>i&1 == 1 {
			half += len(lst) - int(old.off[i+1]-old.off[i])
		}
	}
	if err := CheckCSRBounds(0, half); err != nil {
		panic(fmt.Sprintf("graph: cannot freeze to CSR: %v", err))
	}
	pg := &page{targets: make([]int32, half), weights: make([]float64, half)}
	pos := int32(0)
	for i := 0; i < len(rows); {
		if mask>>i&1 == 0 {
			j := i + 1
			for j < len(rows) && mask>>j&1 == 0 {
				j++
			}
			a, b := old.off[i], old.off[j]
			copy(pg.targets[pos:], old.targets[a:b])
			copy(pg.weights[pos:], old.weights[a:b])
			for ; i < j; i++ {
				pg.off[i] = old.off[i] - a + pos
			}
			pos += b - a
			continue
		}
		pg.off[i] = pos
		for _, e := range rows[i] {
			pg.targets[pos] = int32(e.to)
			pg.weights[pos] = e.w
			pos++
		}
		i++
	}
	for i := len(rows); i <= pageSize; i++ {
		pg.off[i] = pos
	}
	return pg
}

// N returns the number of nodes.
func (p *PagedCSR) N() int { return p.n }

// M returns the number of edges, matching Graph.M of the snapshotted graph.
func (p *PagedCSR) M() int { return p.m }

// Directed reports whether the snapshotted graph was directed.
func (p *PagedCSR) Directed() bool { return p.directed }

// Degree returns the out-degree of v (0 for out-of-range v, like CSR).
func (p *PagedCSR) Degree(v int) int {
	if v < 0 || v >= p.n {
		return 0
	}
	pg, i := p.pages[v>>pageShift], v&(pageSize-1)
	return int(pg.off[i+1] - pg.off[i])
}

// Neighbors returns the out-neighbors of v in adjacency order as a
// zero-copy view into its page. The slice must not be modified.
func (p *PagedCSR) Neighbors(v int) []int32 {
	if v < 0 || v >= p.n {
		return nil
	}
	pg, i := p.pages[v>>pageShift], v&(pageSize-1)
	return pg.targets[pg.off[i]:pg.off[i+1]]
}

// NeighborWeights returns the edge weights of v's out-edges, parallel to
// Neighbors(v), as a zero-copy view. The slice must not be modified.
func (p *PagedCSR) NeighborWeights(v int) []float64 {
	if v < 0 || v >= p.n {
		return nil
	}
	pg, i := p.pages[v>>pageShift], v&(pageSize-1)
	return pg.weights[pg.off[i]:pg.off[i+1]]
}
