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

// Clone deep-copies the set.
func (ls *LabelSet) Clone() *LabelSet {
	if ls == nil {
		return nil
	}
	out := &LabelSet{Seq: ls.Seq, Dest: ls.Dest, HasCDS: ls.HasCDS}
	out.Dist = append([]float64(nil), ls.Dist...)
	out.Next = append([]int32(nil), ls.Next...)
	out.MIS = append([]bool(nil), ls.MIS...)
	if ls.CDS != nil {
		out.CDS = append([]bool(nil), ls.CDS...)
	}
	return out
}

// LabelDelta is one label-delta record: the changed (node, value) pairs of
// one structure at one epoch publish. A Reset delta reinitializes the whole
// structure before applying its entries (the first delta of a fresh log, or
// a structure whose array length changed); an Absent CDS delta retires the
// backbone entirely.
type LabelDelta struct {
	Kind   LabelKind
	Reset  bool
	Absent bool   // LabelCDS only: backbone no longer maintained
	Seq    uint64 // batch seq of the topology the labels reflect
	N      uint32 // full label-array length (sanity + sizing on Reset)
	Dest   int32  // LabelRoute only; 0 otherwise

	Nodes []int32
	Dists []float64 // LabelRoute, parallel to Nodes
	Nexts []int32   // LabelRoute, parallel to Nodes
	Bits  []bool    // LabelMIS / LabelCDS, parallel to Nodes
}

// Label-delta codec constants. The payload is versioned independently of
// the frame format so the entry layout can evolve without renumbering the
// record type.
const (
	labelDeltaVer = 1

	labelDeltaHeader = 1 + 1 + 1 + 1 + 8 + 4 + 4 + 4 // type, ver, kind, flags, seq, n, dest, count
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
	buf = binary.LittleEndian.AppendUint64(buf, d.Seq)
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
	d.Seq = binary.LittleEndian.Uint64(p[4:])
	d.N = binary.LittleEndian.Uint32(p[12:])
	d.Dest = int32(binary.LittleEndian.Uint32(p[16:]))
	count := int(binary.LittleEndian.Uint32(p[20:]))
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

// applyLabelDelta folds one delta into ls, allocating arrays on Reset. It
// is defensive against arbitrary decoded input: out-of-range nodes are
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
	if d.Seq > ls.Seq {
		ls.Seq = d.Seq
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

// diffLabels computes the delta records that carry prev to cur. A nil prev,
// a length change, or a destination change yields full Reset deltas. The
// returned deltas are in canonical node-ascending order, chunked at
// maxLabelEntries entries each.
func diffLabels(prev, cur *LabelSet) []*LabelDelta {
	var out []*LabelDelta
	n := cur.N()
	emitRoute := func(nodes []int32, reset bool) {
		chunkNodes(len(nodes), func(lo, hi int) {
			d := &LabelDelta{
				Kind: LabelRoute, Reset: reset && lo == 0, Seq: cur.Seq,
				N: uint32(n), Dest: int32(cur.Dest),
				Nodes: nodes[lo:hi],
				Dists: make([]float64, hi-lo),
				Nexts: make([]int32, hi-lo),
			}
			for i, v := range d.Nodes {
				d.Dists[i] = cur.Dist[v]
				d.Nexts[i] = cur.Next[v]
			}
			out = append(out, d)
		})
	}
	emitBits := func(kind LabelKind, bits []bool, nodes []int32, reset bool) {
		chunkNodes(len(nodes), func(lo, hi int) {
			d := &LabelDelta{
				Kind: kind, Reset: reset && lo == 0, Seq: cur.Seq,
				N: uint32(n), Nodes: nodes[lo:hi], Bits: make([]bool, hi-lo),
			}
			for i, v := range d.Nodes {
				d.Bits[i] = bits[v]
			}
			out = append(out, d)
		})
	}
	allNodes := func() []int32 {
		nodes := make([]int32, n)
		for i := range nodes {
			nodes[i] = int32(i)
		}
		return nodes
	}

	routeReset := prev == nil || len(prev.Dist) != n || prev.Dest != cur.Dest
	if routeReset {
		nodes := allNodes()
		if len(nodes) > 0 {
			emitRoute(nodes, true)
		} else {
			out = append(out, &LabelDelta{Kind: LabelRoute, Reset: true, Seq: cur.Seq, N: 0, Dest: int32(cur.Dest)})
		}
	} else {
		var nodes []int32
		for v := 0; v < n; v++ {
			if cur.Dist[v] != prev.Dist[v] || cur.Next[v] != prev.Next[v] ||
				(math.IsNaN(cur.Dist[v]) != math.IsNaN(prev.Dist[v])) {
				nodes = append(nodes, int32(v))
			}
		}
		if len(nodes) > 0 {
			emitRoute(nodes, false)
		}
	}

	misReset := prev == nil || len(prev.MIS) != len(cur.MIS)
	if misReset {
		emitBits(LabelMIS, cur.MIS, allNodes()[:len(cur.MIS)], true)
	} else {
		var nodes []int32
		for v := range cur.MIS {
			if cur.MIS[v] != prev.MIS[v] {
				nodes = append(nodes, int32(v))
			}
		}
		if len(nodes) > 0 {
			emitBits(LabelMIS, cur.MIS, nodes, false)
		}
	}

	switch {
	case cur.HasCDS && (prev == nil || !prev.HasCDS || len(prev.CDS) != len(cur.CDS)):
		emitBits(LabelCDS, cur.CDS, allNodes()[:len(cur.CDS)], true)
	case cur.HasCDS:
		var nodes []int32
		for v := range cur.CDS {
			if cur.CDS[v] != prev.CDS[v] {
				nodes = append(nodes, int32(v))
			}
		}
		if len(nodes) > 0 {
			emitBits(LabelCDS, cur.CDS, nodes, false)
		}
	case prev != nil && prev.HasCDS:
		out = append(out, &LabelDelta{Kind: LabelCDS, Absent: true, Seq: cur.Seq, N: uint32(n)})
	}
	return out
}
