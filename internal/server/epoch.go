package server

import (
	"math"
	"time"

	"structura/internal/centrality"
	"structura/internal/graph"
)

// Epoch is one immutable published snapshot of the served structures: the
// CSR topology plus every label array a query can touch, built by the
// writer after a mutation batch heals and swapped in through an
// atomic.Pointer (RCU-style). Readers load the pointer once per request and
// answer entirely from that one epoch, so a response can never mix label
// arrays from two different topology versions — the consistency property
// the epoch tests pin. All fields are read-only after publication.
type Epoch struct {
	Seq     uint64    // 1-based publication counter
	Created time.Time // publication instant, for the epoch-age metric

	CSR  *graph.CSR
	Dest int // destination the route labels point toward

	// Distance-vector route labels toward Dest: hop distance (+Inf when
	// unreachable) and next hop (-1 at Dest and when unreachable).
	RouteDist []float64
	RouteNext []int

	// MIS membership under ID priorities.
	MIS     []bool
	MISSize int

	// CDS backbone membership; nil when the backbone is not maintained
	// (disconnected support at startup, or Config.SkipCDS).
	CDS     []bool
	CDSSize int

	// Degree-centrality ranking: node IDs by descending degree, ties by
	// ascending ID (centrality.Ranking), with the parallel score array —
	// what /centrality/topk slices.
	Rank []int
	Deg  []float64

	// Unreachable counts nodes with no route to Dest, a staleness signal
	// surfaced by /labels and /metrics.
	Unreachable int
}

// buildEpoch assembles the next epoch from the writer-owned engine state.
// Only the writer goroutine calls it; every array is freshly allocated so
// publication hands the readers exclusively immutable data.
func (s *Server) buildEpoch(seq uint64) *Epoch {
	csr := s.g.Freeze()
	dist, next := s.routeSrc.RouteLabels()
	mis := s.misSrc.MISLabels()
	n := csr.N()

	ep := &Epoch{
		Seq:       seq,
		Created:   time.Now(),
		CSR:       csr,
		Dest:      s.cfg.Dest,
		RouteDist: dist,
		RouteNext: next,
		MIS:       mis,
	}
	for _, in := range mis {
		if in {
			ep.MISSize++
		}
	}
	for _, d := range dist {
		if math.IsInf(d, 1) {
			ep.Unreachable++
		}
	}
	if s.cdsSrc != nil {
		members := s.cdsSrc.CDSMembers()
		bm := make([]bool, n)
		for _, v := range members {
			bm[v] = true
		}
		ep.CDS = bm
		ep.CDSSize = len(members)
	}
	ep.Deg = make([]float64, n)
	for v := 0; v < n; v++ {
		ep.Deg[v] = float64(csr.Degree(v))
	}
	ep.Rank = centrality.Ranking(ep.Deg)
	return ep
}
