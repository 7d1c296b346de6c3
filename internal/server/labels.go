package server

import (
	"math"
	"math/bits"
)

// labelPageShift fixes the page size of Labels: 64 nodes per page, so the
// MIS and CDS bits of a page are one word each, a 100k-node epoch is 1,563
// page pointers (12.5 KB), and a 100-op batch copies a few hundred pages.
const (
	labelPageShift = 6
	labelPageSize  = 1 << labelPageShift
	labelPageMask  = labelPageSize - 1
)

// labelPage holds the labels of labelPageSize consecutive nodes. Pages are
// never written once an epoch holding them is published.
type labelPage struct {
	dist     [labelPageSize]float64 // hop distance toward Dest; +Inf unreachable
	next     [labelPageSize]int32   // next hop; -1 at Dest and when unreachable
	mis, cds uint64                 // membership bits, node i at bit i
}

// Labels is one epoch's immutable label set, split into pages of
// labelPageSize nodes: route labels toward Destination (dist +Inf and next
// -1 when unreachable), MIS membership under ID priorities, and CDS
// backbone membership when HasBackbone. Successive epochs share every page
// whose nodes' labels did not change, so publishing a batch copies only
// the pages it wrote. It implements wal.LabelReader; all methods are safe
// for concurrent use.
type Labels struct {
	n      int
	dest   int
	hasCDS bool
	pages  []*labelPage
}

// N returns the node count.
func (l *Labels) N() int { return l.n }

// Destination returns the node the route labels point toward.
func (l *Labels) Destination() int { return l.dest }

// HasBackbone reports whether the epoch carries CDS membership.
func (l *Labels) HasBackbone() bool { return l.hasCDS }

// Route returns node v's hop distance (+Inf when unreachable) and next hop
// (-1 at the destination and when unreachable).
func (l *Labels) Route(v int) (float64, int32) {
	p := l.pages[v>>labelPageShift]
	return p.dist[v&labelPageMask], p.next[v&labelPageMask]
}

// InMIS reports node v's MIS membership.
func (l *Labels) InMIS(v int) bool { return l.pages[v>>labelPageShift].mis>>(v&labelPageMask)&1 != 0 }

// InCDS reports node v's backbone membership (false without a backbone).
func (l *Labels) InCDS(v int) bool { return l.pages[v>>labelPageShift].cds>>(v&labelPageMask)&1 != 0 }

// labelCounts are the per-epoch tallies /labels and /metrics report.
type labelCounts struct {
	mis, cds, unreachable int
}

// The engine faces a label epoch is read through, node by node.
// RouteLabels copies every route label out, for tests that compare whole
// arrays.
type (
	routeSource interface {
		Route(v int) (float64, int)
		RouteLabels() ([]float64, []int)
	}
	misSource interface{ InMIS(v int) bool }
	cdsSource interface{ InCDS(v int) bool }
)

// labelSources are the writer's engines a label epoch is read from; cds is
// nil when the backbone is not maintained.
type labelSources struct {
	route routeSource
	mis   misSource
	cds   cdsSource
}

// read returns node v's labels as the engines hold them now.
func (src *labelSources) read(v int) (dist float64, next int32, mis, cds bool) {
	d, nx := src.route.Route(v)
	if src.cds != nil {
		cds = src.cds.InCDS(v)
	}
	return d, int32(nx), src.mis.InMIS(v), cds
}

// buildLabels reads every node's labels from the engines into fresh pages
// and counts them.
func buildLabels(src *labelSources, n, dest int) (*Labels, labelCounts) {
	l := &Labels{n: n, dest: dest, hasCDS: src.cds != nil, pages: make([]*labelPage, (n+labelPageSize-1)>>labelPageShift)}
	// One allocation backs every page; pages later copied on write leave it.
	slab := make([]labelPage, len(l.pages))
	var c labelCounts
	for i := range l.pages {
		p := &slab[i]
		l.pages[i] = p
		for j := 0; j < labelPageSize && i<<labelPageShift+j < n; j++ {
			d, nx, mis, cds := src.read(i<<labelPageShift + j)
			p.dist[j], p.next[j] = d, nx
			if math.IsInf(d, 1) {
				c.unreachable++
			}
			if mis {
				p.mis |= 1 << j
			}
			if cds {
				p.cds |= 1 << j
			}
		}
		c.mis += bits.OnesCount64(p.mis)
		c.cds += bits.OnesCount64(p.cds)
	}
	return l, c
}

// withChanges returns the epoch after prev in which the engines' labels may
// differ from prev's only at nodes: it shares prev's pages, copies each
// page before its first write, and adjusts prev's counts by every changed
// node's old → new values. prev is not modified.
func (prev *Labels) withChanges(src *labelSources, nodes []int, c labelCounts) (*Labels, labelCounts) {
	l := &Labels{n: prev.n, dest: prev.dest, hasCDS: prev.hasCDS, pages: make([]*labelPage, len(prev.pages))}
	copy(l.pages, prev.pages)
	for _, v := range nodes {
		i, j := v>>labelPageShift, v&labelPageMask
		p := l.pages[i]
		d, nx, mis, cds := src.read(v)
		wasMIS, wasCDS := p.mis>>j&1 != 0, p.cds>>j&1 != 0
		if d == p.dist[j] && nx == p.next[j] && mis == wasMIS && cds == wasCDS {
			continue
		}
		// A page still equal to prev's has not been copied for this epoch.
		if p == prev.pages[i] {
			cp := *p
			p = &cp
			l.pages[i] = p
		}
		c.unreachable += b2i(math.IsInf(d, 1)) - b2i(math.IsInf(p.dist[j], 1))
		c.mis += b2i(mis) - b2i(wasMIS)
		c.cds += b2i(cds) - b2i(wasCDS)
		p.dist[j], p.next[j] = d, nx
		p.mis = p.mis&^(1<<j) | uint64(b2i(mis))<<j
		p.cds = p.cds&^(1<<j) | uint64(b2i(cds))<<j
	}
	return l, c
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
