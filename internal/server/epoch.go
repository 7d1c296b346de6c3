package server

import (
	"sync"
	"time"

	"structura/internal/centrality"
	"structura/internal/graph"
	"structura/internal/wal"
)

// Epoch is one immutable published snapshot of the served structures: the
// paged topology plus every label array a query can touch, built by the
// writer after a mutation batch heals and swapped in through an
// atomic.Pointer (RCU-style). Readers load the pointer once per request and
// answer entirely from that one epoch, so a response can never mix label
// arrays from two different topology versions — the consistency property
// the epoch tests pin. All fields are read-only after publication.
type Epoch struct {
	Seq     uint64    // 1-based publication counter
	Created time.Time // publication instant, for the epoch-age metric

	// Topo is the epoch's topology. It shares every adjacency page the
	// batch that built it did not touch with the previous epoch's Topo.
	Topo *graph.PagedCSR

	// Labels is the writer's one label snapshot of this epoch — what the
	// WAL journaled for it when the server journals: route labels toward
	// Labels.Destination(), MIS membership under ID priorities, and CDS
	// backbone membership when Labels.HasBackbone() (absent with a
	// disconnected support at startup, or Config.SkipCDS). It shares every
	// label page the batch that built it did not change with the previous
	// epoch's Labels.
	Labels *Labels

	// Counts over Labels: MIS members, CDS members, and nodes with no route
	// to the destination (a staleness signal surfaced by /labels and
	// /metrics).
	MISSize     int
	CDSSize     int
	Unreachable int

	rankOnce sync.Once
	rank     []int

	hashOnce sync.Once
	hash     uint64
}

// GraphHash returns wal.CSRHash of the epoch's topology. It is computed on
// the first call and cached: the epoch is immutable, so every later
// /labels?hash=1 of the same epoch is free.
func (ep *Epoch) GraphHash() uint64 {
	ep.hashOnce.Do(func() { ep.hash = wal.CSRHash(ep.Topo) })
	return ep.hash
}

// Rank returns the epoch's degree-centrality ranking: node IDs by
// descending Topo degree, ties by ascending ID (centrality.Ranking) — what
// /centrality/topk slices. It is computed on the first call and cached, so
// the writer never ranks: the first top-k query of an epoch pays the
// counting sort, and an epoch nobody ranks never does. Read-only for the
// caller.
func (ep *Epoch) Rank() []int {
	ep.rankOnce.Do(func() {
		deg := make([]float64, ep.Topo.N())
		for v := range deg {
			deg[v] = float64(ep.Topo.Degree(v))
		}
		ep.rank = centrality.Ranking(deg)
	})
	return ep.rank
}

// counts returns the epoch's label tallies.
func (ep *Epoch) counts() labelCounts {
	return labelCounts{mis: ep.MISSize, cds: ep.CDSSize, unreachable: ep.Unreachable}
}

// buildEpoch assembles the next epoch around the label snapshot labels and
// its counts. Only the writer goroutine calls it. The topology rebuilds the
// pages of the touched nodes and shares the rest with the published epoch,
// which is sound because every topology change since that epoch lies on a
// touched node: a batch that fails before publishing stops the writer. The
// labels and the rebuilt pages are fresh and shared pages are immutable,
// so publication hands the readers exclusively immutable data.
func (s *Server) buildEpoch(seq uint64, labels *Labels, c labelCounts, touched []int) *Epoch {
	var prev *graph.PagedCSR
	if last := s.epoch.Load(); last != nil {
		prev = last.Topo
	}
	return &Epoch{
		Seq: seq, Created: time.Now(), Topo: s.g.FreezeFrom(prev, touched), Labels: labels,
		MISSize: c.mis, CDSSize: c.cds, Unreachable: c.unreachable,
	}
}
