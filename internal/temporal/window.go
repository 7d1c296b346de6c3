package temporal

import (
	"fmt"

	"structura/internal/wal"
)

// LoadWindow builds a time-evolving graph for the batch-sequence window
// [from, to) from the durable history in a WAL store directory. Replay
// hands every applied edge record the batch that committed it — an add
// opens an edge at its batch, a remove closes it — so the window
// materializes as a single range scan over the committed (snapshot,
// log-suffix) pair: each time unit t of the returned EG holds a contact
// for every edge whose validity interval covers batch from+t. The scan
// stops early once the committed history passes `to`; nothing beyond the
// window is decoded into contacts.
//
// Snapshot edges are valid from the snapshot's batch seq (earlier history
// is compacted away); edges still open at the end of the log emit contacts
// through the whole window tail.
func LoadWindow(dir string, from, to uint64) (*EG, error) {
	return LoadWindowFS(nil, dir, from, to)
}

// LoadWindowFS is LoadWindow over an explicit wal.FS (nil means the real
// filesystem) — how tests replay windows from in-memory crash images.
func LoadWindowFS(fsys wal.FS, dir string, from, to uint64) (*EG, error) {
	if to < from {
		return nil, fmt.Errorf("temporal: window [%d,%d) is inverted", from, to)
	}

	// Open intervals under construction: edge key -> (start batch, weight).
	type open struct {
		start  uint64
		weight float64
	}
	type edgeKey struct{ u, v int32 }
	norm := func(u, v int32) edgeKey {
		if u > v {
			u, v = v, u
		}
		return edgeKey{u, v}
	}
	type span struct {
		u, v     int32
		from, to uint64 // [from, to) in batch time; to == ^0 while open
		weight   float64
	}

	openEdges := make(map[edgeKey]open)
	var spans []span
	var maxNode int32
	var seq uint64

	closeEdge := func(k edgeKey, o open, at uint64) {
		spans = append(spans, span{u: k.u, v: k.v, from: o.start, to: at, weight: o.weight})
	}

	rec, err := wal.Replay(fsys, dir, func(r wal.Record) error {
		switch r.Type {
		case wal.TCommit:
			seq = r.Seq
			// Past the window there is nothing left to observe: every
			// interval that could still intersect [from, to) is either
			// already closed or still open, and open intervals cover the
			// tail regardless of what later batches do to them.
			if seq >= to {
				return wal.ErrStopReplay
			}
		case wal.TAddEdge:
			if r.U > maxNode {
				maxNode = r.U
			}
			if r.V > maxNode {
				maxNode = r.V
			}
			k := norm(r.U, r.V)
			if _, dup := openEdges[k]; !dup {
				openEdges[k] = open{start: r.Seq, weight: r.Weight}
			}
		case wal.TRemoveEdge:
			k := norm(r.U, r.V)
			if o, ok := openEdges[k]; ok {
				closeEdge(k, o, r.Seq)
				delete(openEdges, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rec.Seq > seq {
		seq = rec.Seq
	}

	// Close the still-open edges at the window's end so they emit contacts
	// through the tail.
	for k, o := range openEdges {
		closeEdge(k, o, to)
	}

	n := int(maxNode) + 1
	if rec.Nodes > n {
		n = rec.Nodes // isolated nodes carry no edge records but still exist
	}
	eg, err := New(n, int(to-from))
	if err != nil {
		return nil, err
	}
	for _, s := range spans {
		lo, hi := s.from, s.to
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		for b := lo; b < hi; b++ {
			if cerr := eg.AddWeightedContact(int(s.u), int(s.v), int(b-from), s.weight); cerr != nil {
				return nil, cerr
			}
		}
	}
	return eg, nil
}
