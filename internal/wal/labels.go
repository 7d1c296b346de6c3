package wal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// LabelKind discriminates which served structure a label-delta record
// updates. The on-disk byte values are part of the durable format.
type LabelKind uint8

const (
	// LabelRoute is the distance-vector pair (dist, next) toward Dest.
	LabelRoute LabelKind = 0
	// LabelMIS is the independent-set membership bit.
	LabelMIS LabelKind = 1
	// LabelCDS is the backbone membership bit.
	LabelCDS LabelKind = 2
)

// LabelSet is one complete label epoch as the log persists it: every label
// array the serving layer publishes, stamped with the batch sequence of the
// topology it was computed over. Labels are a cache of computation, not
// history — losing them only costs a recompute — so they ride the same log
// as deltas and are folded into the snapshot at compaction.
//
// A set handed to Log.AppendLabels is retained by the log, not copied: it
// is the baseline the next journal diffs against and the label section of
// the next snapshot. Build a fresh set (or Clone one) for every epoch; a
// set modified after it was journaled makes the next delta or snapshot
// wrong.
type LabelSet struct {
	Seq  uint64 // batch seq of the topology these labels reflect
	Dest int    // destination the route labels point toward

	Dist []float64 // hop distance toward Dest; +Inf unreachable
	Next []int32   // next hop; -1 at Dest and when unreachable
	MIS  []bool    // independent-set membership

	HasCDS bool
	CDS    []bool // backbone membership; nil when not maintained
}

// N returns the label array length (0 for a nil set).
func (ls *LabelSet) N() int {
	if ls == nil {
		return 0
	}
	return len(ls.Dist)
}

// LabelReader reads one label epoch node by node — what the journal diffs
// and retains as its baseline. *LabelSet implements it, and so does any
// other layout of the same labels (the serving layer's paged epochs). The
// MIS and CDS arrays a reader stands for are N long, CDS only when
// HasBackbone. A reader handed to the log must read the same labels for as
// long as the log retains it, that is until the next label journal: hand
// it immutable epochs.
type LabelReader interface {
	N() int
	Destination() int
	HasBackbone() bool
	Route(v int) (dist float64, next int32)
	InMIS(v int) bool
	InCDS(v int) bool
}

// Destination returns ls.Dest.
func (ls *LabelSet) Destination() int { return ls.Dest }

// HasBackbone returns ls.HasCDS.
func (ls *LabelSet) HasBackbone() bool { return ls.HasCDS }

// Route returns node v's route label.
func (ls *LabelSet) Route(v int) (float64, int32) { return ls.Dist[v], ls.Next[v] }

// InMIS returns node v's MIS membership.
func (ls *LabelSet) InMIS(v int) bool { return ls.MIS[v] }

// InCDS returns node v's backbone membership.
func (ls *LabelSet) InCDS(v int) bool { return ls.CDS[v] }

// LabelDelta is one label-delta record: the changed (node, value) pairs of
// one structure at one epoch publish. A Reset delta reinitializes the whole
// structure before applying its entries (the first delta of a fresh log, or
// a structure whose array length changed); an Absent CDS delta retires the
// backbone entirely. The batch the labels reflect is not in the record: it
// is the last one committed before it in the log.
type LabelDelta struct {
	Kind   LabelKind
	Reset  bool
	Absent bool   // LabelCDS only: backbone no longer maintained
	N      uint32 // full label-array length (sanity + sizing on Reset)
	Dest   int32  // LabelRoute only; 0 otherwise

	Nodes []int32
	Dists []float64 // LabelRoute, parallel to Nodes
	Nexts []int32   // LabelRoute, parallel to Nodes
	Bits  []bool    // LabelMIS / LabelCDS, parallel to Nodes
}

// Label-delta codec constants. The payload is versioned independently of
// the frame format so the entry layout can evolve without renumbering the
// record type. Version 2 dropped the batch seq that version 1 repeated from
// the preceding commit marker.
const (
	labelDeltaVer = 2

	labelDeltaHeader = 1 + 1 + 1 + 1 + 4 + 4 + 4 // type, ver, kind, flags, n, dest, count
	labelRouteEntry  = 4 + 8 + 4
	labelBitEntry    = 4 + 1

	// maxLabelEntries bounds one record; larger change sets are chunked.
	maxLabelEntries = 4096

	// maxLabelPayload is the plausibility bound readFrame enforces on
	// label-delta frames.
	maxLabelPayload = labelDeltaHeader + maxLabelEntries*labelRouteEntry

	labelFlagReset  = 1 << 0
	labelFlagAbsent = 1 << 1

	// maxLabelN caps the node count a Reset delta may allocate for —
	// well past the 10M-node scale target, well short of an OOM from a
	// hostile length claim.
	maxLabelN = 1 << 28
)

// appendLabelDelta appends d's canonical payload encoding to buf.
func appendLabelDelta(buf []byte, d *LabelDelta) []byte {
	buf = append(buf, byte(TLabelDelta), labelDeltaVer, byte(d.Kind))
	var flags byte
	if d.Reset {
		flags |= labelFlagReset
	}
	if d.Absent {
		flags |= labelFlagAbsent
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, d.N)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Dest))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Nodes)))
	if d.Kind == LabelRoute {
		for i, v := range d.Nodes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Dists[i]))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Nexts[i]))
		}
		return buf
	}
	for i, v := range d.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if d.Bits[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// EncodeLabelDelta returns d's canonical payload (DecodeLabelDelta's
// inverse), including the leading record-type byte.
func EncodeLabelDelta(d *LabelDelta) []byte { return appendLabelDelta(nil, d) }

// DecodeLabelDelta parses one label-delta payload. It never panics:
// arbitrary input yields a delta or a named error, every accepted input
// re-encodes to the same bytes, and boolean entry bytes must be exactly 0
// or 1 (so the encoding stays canonical).
func DecodeLabelDelta(p []byte) (*LabelDelta, error) {
	if len(p) < labelDeltaHeader {
		return nil, fmt.Errorf("%w: label delta has %d byte(s), want >= %d", ErrRecordLen, len(p), labelDeltaHeader)
	}
	if Type(p[0]) != TLabelDelta {
		return nil, fmt.Errorf("%w: label delta starts with type %d", ErrRecordType, p[0])
	}
	if p[1] != labelDeltaVer {
		return nil, fmt.Errorf("%w: label delta version %d (want %d)", ErrRecordType, p[1], labelDeltaVer)
	}
	d := &LabelDelta{Kind: LabelKind(p[2])}
	if d.Kind > LabelCDS {
		return nil, fmt.Errorf("%w: label kind %d", ErrRecordType, p[2])
	}
	flags := p[3]
	if flags&^(byte(labelFlagReset|labelFlagAbsent)) != 0 {
		return nil, fmt.Errorf("%w: label delta flags %#x", ErrRecordType, flags)
	}
	d.Reset = flags&labelFlagReset != 0
	d.Absent = flags&labelFlagAbsent != 0
	if d.Absent && d.Kind != LabelCDS {
		return nil, fmt.Errorf("%w: absent flag on label kind %d", ErrRecordType, d.Kind)
	}
	d.N = binary.LittleEndian.Uint32(p[4:])
	d.Dest = int32(binary.LittleEndian.Uint32(p[8:]))
	count := int(binary.LittleEndian.Uint32(p[12:]))
	if count > maxLabelEntries {
		return nil, fmt.Errorf("%w: label delta claims %d entries (max %d)", ErrRecordLen, count, maxLabelEntries)
	}
	entry := labelBitEntry
	if d.Kind == LabelRoute {
		entry = labelRouteEntry
	}
	if len(p) != labelDeltaHeader+count*entry {
		return nil, fmt.Errorf("%w: label delta has %d byte(s), want %d for %d entries",
			ErrRecordLen, len(p), labelDeltaHeader+count*entry, count)
	}
	off := labelDeltaHeader
	d.Nodes = make([]int32, count)
	if d.Kind == LabelRoute {
		d.Dists = make([]float64, count)
		d.Nexts = make([]int32, count)
		for i := 0; i < count; i++ {
			d.Nodes[i] = int32(binary.LittleEndian.Uint32(p[off:]))
			d.Dists[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off+4:]))
			d.Nexts[i] = int32(binary.LittleEndian.Uint32(p[off+12:]))
			off += labelRouteEntry
		}
		return d, nil
	}
	d.Bits = make([]bool, count)
	for i := 0; i < count; i++ {
		d.Nodes[i] = int32(binary.LittleEndian.Uint32(p[off:]))
		switch p[off+4] {
		case 0:
		case 1:
			d.Bits[i] = true
		default:
			return nil, fmt.Errorf("%w: label bit byte %d", ErrRecordLen, p[off+4])
		}
		off += labelBitEntry
	}
	return d, nil
}

// applyLabelDelta folds one replayed delta into ls, allocating arrays on
// Reset; the caller stamps ls with the batch the delta reflects. It is
// defensive against arbitrary decoded input: out-of-range nodes are
// skipped, and a delta whose N disagrees with the current arrays (absent a
// Reset) is rejected. It reports whether the delta applied.
func applyLabelDelta(ls *LabelSet, d *LabelDelta) bool {
	n := int(d.N)
	if n > maxLabelN {
		return false
	}
	switch d.Kind {
	case LabelRoute:
		if d.Reset || len(ls.Dist) != n {
			if !d.Reset {
				return false
			}
			ls.Dist = make([]float64, n)
			ls.Next = make([]int32, n)
			for i := range ls.Dist {
				ls.Dist[i] = math.Inf(1)
				ls.Next[i] = -1
			}
		}
		ls.Dest = int(d.Dest)
		for i, v := range d.Nodes {
			if v < 0 || int(v) >= n {
				continue
			}
			ls.Dist[v] = d.Dists[i]
			ls.Next[v] = d.Nexts[i]
		}
	case LabelMIS:
		if d.Reset || len(ls.MIS) != n {
			if !d.Reset {
				return false
			}
			ls.MIS = make([]bool, n)
		}
		for i, v := range d.Nodes {
			if v < 0 || int(v) >= n {
				continue
			}
			ls.MIS[v] = d.Bits[i]
		}
	case LabelCDS:
		if d.Absent {
			ls.HasCDS = false
			ls.CDS = nil
			break
		}
		if d.Reset || len(ls.CDS) != n {
			if !d.Reset {
				return false
			}
			ls.CDS = make([]bool, n)
		}
		ls.HasCDS = true
		for i, v := range d.Nodes {
			if v < 0 || int(v) >= n {
				continue
			}
			ls.CDS[v] = d.Bits[i]
		}
	default:
		return false
	}
	return true
}

// chunkNodes splits count entries into maxLabelEntries-sized [lo,hi) spans.
func chunkNodes(count int, fn func(lo, hi int)) {
	for lo := 0; lo < count; lo += maxLabelEntries {
		hi := lo + maxLabelEntries
		if hi > count {
			hi = count
		}
		fn(lo, hi)
	}
}

// diffLabels computes the delta records that carry prev to cur. nodes are
// the candidates — sorted, distinct, in [0, cur.N()) — and must include
// every node whose labels differ between prev and cur; only those that do
// differ are emitted. A nil prev, a length change, or a
// destination change yields full Reset deltas over every node, whatever
// the candidates (likewise a backbone that appears). The returned deltas
// are in canonical node-ascending order, chunked at maxLabelEntries
// entries each, so any candidate superset yields the same records.
func diffLabels(prev, cur LabelReader, nodes []int) []*LabelDelta {
	var out []*LabelDelta
	n := cur.N()
	dest := cur.Destination()
	emit := func(kind LabelKind, ids []int32, reset bool) {
		chunkNodes(len(ids), func(lo, hi int) {
			d := &LabelDelta{
				Kind: kind, Reset: reset && lo == 0,
				N: uint32(n), Nodes: ids[lo:hi],
			}
			switch kind {
			case LabelRoute:
				d.Dest = int32(dest)
				d.Dists = make([]float64, hi-lo)
				d.Nexts = make([]int32, hi-lo)
				for i, v := range d.Nodes {
					d.Dists[i], d.Nexts[i] = cur.Route(int(v))
				}
			case LabelMIS:
				d.Bits = make([]bool, hi-lo)
				for i, v := range d.Nodes {
					d.Bits[i] = cur.InMIS(int(v))
				}
			case LabelCDS:
				d.Bits = make([]bool, hi-lo)
				for i, v := range d.Nodes {
					d.Bits[i] = cur.InCDS(int(v))
				}
			}
			out = append(out, d)
		})
	}
	var all []int32
	allNodes := func() []int32 {
		if all == nil {
			all = make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
		}
		return all
	}

	if prev == nil || prev.N() != n || prev.Destination() != dest {
		if n > 0 {
			emit(LabelRoute, allNodes(), true)
		} else {
			out = append(out, &LabelDelta{Kind: LabelRoute, Reset: true, N: 0, Dest: int32(dest)})
		}
	} else {
		var ids []int32
		for _, v := range nodes {
			d, nx := cur.Route(v)
			// A NaN distance compares unequal to itself, so it is always
			// rewritten.
			if pd, pnx := prev.Route(v); d != pd || nx != pnx {
				ids = append(ids, int32(v))
			}
		}
		if len(ids) > 0 {
			emit(LabelRoute, ids, false)
		}
	}

	if prev == nil || prev.N() != n {
		emit(LabelMIS, allNodes(), true)
	} else {
		var ids []int32
		for _, v := range nodes {
			if cur.InMIS(v) != prev.InMIS(v) {
				ids = append(ids, int32(v))
			}
		}
		if len(ids) > 0 {
			emit(LabelMIS, ids, false)
		}
	}

	switch hasCDS := cur.HasBackbone(); {
	case hasCDS && (prev == nil || !prev.HasBackbone() || prev.N() != n):
		emit(LabelCDS, allNodes(), true)
	case hasCDS:
		var ids []int32
		for _, v := range nodes {
			if cur.InCDS(v) != prev.InCDS(v) {
				ids = append(ids, int32(v))
			}
		}
		if len(ids) > 0 {
			emit(LabelCDS, ids, false)
		}
	case prev != nil && prev.HasBackbone():
		out = append(out, &LabelDelta{Kind: LabelCDS, Absent: true, N: uint32(n)})
	}
	return out
}
