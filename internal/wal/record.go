package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Type discriminates mutation-log records. The on-disk byte values are part
// of the durable format and must never be renumbered or reused: bytes 1, 2
// and 5 named node additions, node removals and weight changes, which no
// writer emitted, and now decode as ErrRecordType.
type Type uint8

const (
	// TAddEdge adds edge (U,V) with Weight. The edge is valid from the
	// batch whose commit marker seals the record onward.
	TAddEdge Type = 3
	// TRemoveEdge removes edge (U,V), closing its validity interval at the
	// batch whose commit marker seals the record.
	TRemoveEdge Type = 4
	// TCommit seals the Count preceding records as committed batch Seq.
	// Records after the last commit marker are discarded by recovery.
	TCommit Type = 6
	// TLabelDelta carries one structure's changed-(node,value) pairs at an
	// epoch publish (see LabelDelta). A label record reflects the batch of
	// the last commit marker before it and is never part of a pending
	// batch.
	TLabelDelta Type = 7
)

// Record is one mutation-log entry. A record's batch is never written in
// it: edge records take theirs from the commit marker that seals them, and
// label records from the last commit marker before them. Replay hands each
// applied record its batch in Seq, so an edge's validity interval reads in
// batch-sequence time — the on-disk reflection of the time-indexed graph: a
// window [a,b) loads as a range scan over the log (see temporal.LoadWindow)
// instead of a full rebuild.
type Record struct {
	Type   Type
	U, V   int32   // edge endpoints
	Weight float64 // TAddEdge
	Seq    uint64  // TCommit: its batch; a record from Replay: the batch that applied it
	Count  uint32  // TCommit: records sealed by this marker

	// Label holds the decoded payload of a TLabelDelta record (nil for
	// every other type). Label records ride the same framing and CRC as
	// mutations but are a cache of computation, not history.
	Label *LabelDelta
}

// Canonical payload sizes per type; decode rejects any other length, which
// makes encode∘decode the identity on every decodable byte string (the
// FuzzWALRecord property).
const (
	lenAddEdge    = 1 + 4 + 4 + 8
	lenRemoveEdge = 1 + 4 + 4
	lenCommit     = 1 + 8 + 4

	// maxPayload bounds a frame's declared payload length; anything larger
	// is torn or garbage, never a legal record. Label-delta records are
	// variable-length up to maxLabelPayload (labels.go), which dominates.
	maxPayload = maxLabelPayload
)

// frameHeader is the per-record framing: payload length then CRC32C of the
// payload, both little-endian uint32.
const frameHeader = 8

// castagnoli is the CRC32C polynomial table shared by every checksum in the
// durable format (records, snapshots, superblocks, log headers).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Named decode errors. Recovery maps all three to a truncation point; the
// fuzz targets assert no other failure mode exists.
var (
	ErrRecordType = errors.New("wal: unknown record type")
	ErrRecordLen  = errors.New("wal: record payload length does not match its type")
	ErrTorn       = errors.New("wal: torn record")
)

// appendPayload appends r's canonical payload encoding to buf.
func (r Record) appendPayload(buf []byte) []byte {
	buf = append(buf, byte(r.Type))
	switch r.Type {
	case TAddEdge:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.V))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Weight))
	case TRemoveEdge:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.V))
	case TCommit:
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, r.Count)
	case TLabelDelta:
		return appendLabelDelta(buf[:len(buf)-1], r.Label)
	default:
		panic(fmt.Sprintf("wal: encoding unknown record type %d", r.Type))
	}
	return buf
}

// DecodeRecord parses one canonical payload. It never panics: arbitrary
// input yields a Record or a named error, and every accepted input
// re-encodes to the same bytes.
func DecodeRecord(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", ErrRecordLen)
	}
	var r Record
	r.Type = Type(p[0])
	if r.Type == TLabelDelta {
		d, err := DecodeLabelDelta(p)
		if err != nil {
			return Record{}, err
		}
		r.Label = d
		return r, nil
	}
	want := 0
	switch r.Type {
	case TAddEdge:
		want = lenAddEdge
	case TRemoveEdge:
		want = lenRemoveEdge
	case TCommit:
		want = lenCommit
	default:
		return Record{}, fmt.Errorf("%w: %d", ErrRecordType, p[0])
	}
	if len(p) != want {
		return Record{}, fmt.Errorf("%w: type %d has %d byte(s), want %d", ErrRecordLen, r.Type, len(p), want)
	}
	switch r.Type {
	case TAddEdge:
		r.U = int32(binary.LittleEndian.Uint32(p[1:]))
		r.V = int32(binary.LittleEndian.Uint32(p[5:]))
		r.Weight = math.Float64frombits(binary.LittleEndian.Uint64(p[9:]))
	case TRemoveEdge:
		r.U = int32(binary.LittleEndian.Uint32(p[1:]))
		r.V = int32(binary.LittleEndian.Uint32(p[5:]))
	case TCommit:
		r.Seq = binary.LittleEndian.Uint64(p[1:])
		r.Count = binary.LittleEndian.Uint32(p[9:])
	}
	return r, nil
}

// EncodeRecord returns r's canonical payload (DecodeRecord's inverse).
func EncodeRecord(r Record) []byte { return r.appendPayload(nil) }

// appendFrame appends the framed record — length, CRC32C, payload — to buf.
func appendFrame(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	buf = r.appendPayload(buf)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// readFrame decodes one framed record from data. It returns the record and
// the bytes consumed, or ErrTorn (wrapped with the reason) when the frame is
// incomplete, oversized, checksum-corrupt, or undecodable — the signal that
// recovery must truncate here.
func readFrame(data []byte) (Record, int, error) {
	if len(data) < frameHeader {
		return Record{}, 0, fmt.Errorf("%w: %d header byte(s) of %d", ErrTorn, len(data), frameHeader)
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if n == 0 || n > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: implausible payload length %d", ErrTorn, n)
	}
	if len(data) < frameHeader+int(n) {
		return Record{}, 0, fmt.Errorf("%w: %d payload byte(s) of %d", ErrTorn, len(data)-frameHeader, n)
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrTorn)
	}
	r, err := DecodeRecord(payload)
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", ErrTorn, err)
	}
	return r, frameHeader + int(n), nil
}
