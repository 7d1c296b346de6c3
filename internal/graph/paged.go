package graph

import "fmt"

// pageShift fixes the page size of a PagedCSR: 64 rows per page, so a
// 100k-node snapshot is 1,563 page pointers (12.5 KB) and a 100-op batch
// rebuilds at most 200 of them.
const (
	pageShift = 6
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
// holding no touched node. It copies prev's page pointers and rebuilds
// each page containing a node of touched; out-of-range entries are
// ignored. Every page is built when prev is nil or differs from g in node
// count or directedness.
//
// The caller guarantees the sharing is sound: every adjacency change to g
// since prev was taken lies on a row of some touched node. An edge
// mutation changes the rows of its endpoints only, so passing both
// endpoints of every mutation applied since prev suffices. Like Freeze, it
// panics when g exceeds the int32 layout.
func (g *Graph) FreezeFrom(prev *PagedCSR, touched []int) *PagedCSR {
	n := len(g.adj)
	if err := CheckCSRBounds(n, 0); err != nil {
		panic(fmt.Sprintf("graph: cannot freeze to CSR: %v", err))
	}
	p := &PagedCSR{directed: g.directed, n: n, m: g.edges, pages: make([]*page, (n+pageSize-1)>>pageShift)}
	if prev == nil || prev.n != n || prev.directed != g.directed {
		for i := range p.pages {
			p.pages[i] = g.buildPage(i << pageShift)
		}
		return p
	}
	copy(p.pages, prev.pages)
	for _, v := range touched {
		if v < 0 || v >= n {
			continue
		}
		// A page still equal to prev's has not been rebuilt for this call.
		if i := v >> pageShift; p.pages[i] == prev.pages[i] {
			p.pages[i] = g.buildPage(i << pageShift)
		}
	}
	return p
}

// buildPage lays out the page whose first row is node lo.
func (g *Graph) buildPage(lo int) *page {
	rows := g.adj[lo:min(lo+pageSize, len(g.adj))]
	half := 0
	for _, lst := range rows {
		half += len(lst)
	}
	if err := CheckCSRBounds(0, half); err != nil {
		panic(fmt.Sprintf("graph: cannot freeze to CSR: %v", err))
	}
	pg := &page{targets: make([]int32, half), weights: make([]float64, half)}
	pos := int32(0)
	for i, lst := range rows {
		pg.off[i] = pos
		for _, e := range lst {
			pg.targets[pos] = int32(e.to)
			pg.weights[pos] = e.w
			pos++
		}
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
