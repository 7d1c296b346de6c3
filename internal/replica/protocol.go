// Package replica implements primary/replica replication for the WAL-backed
// serving layer. The primary streams its durable log — snapshot on connect
// or generation divergence, then raw log bytes by offset — over a
// length-prefixed TCP protocol; the replica mirrors the bytes into a
// crash-recoverable store directory (wal.Mirror, which also applies them to
// the view the replica serves degraded stale-ok reads from), and can be
// promoted into a full primary with a bumped fencing token when the old one
// dies.
//
// The protocol is pull-anchored and idempotent: the replica opens with what
// it has (generation, durable offset, fence), the primary answers with
// state and then pushes only durable bytes, and every ack names a
// frame-aligned byte offset the replica has fsynced — so across any crash
// or reconnect, acked ≤ recovered ≤ committed holds on both ends.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Message types. The wire format of every message is
//
//	u32 length | u8 type | payload
//
// with the length covering type byte + payload. Integers are
// little-endian; offsets are int64 values carried as two's-complement u64.
const (
	// mHello (replica → primary) opens a session: the replica's mirrored
	// generation, durable byte offset, and recorded fence.
	mHello = byte(1)
	// mState (primary → replica) answers a hello: the primary's live
	// generation, durable byte length, committed batch seq, and fence.
	mState = byte(2)
	// mSnapshot (primary → replica) carries a full-resync payload: the
	// snapshot file of generation Gen under fence Fence. Log bytes restart
	// at offset 0 after a snapshot.
	mSnapshot = byte(3)
	// mChunk (primary → replica) carries durable log bytes of generation
	// Gen starting at byte offset Off.
	mChunk = byte(4)
	// mAck (replica → primary) acknowledges durable (fsynced) mirroring
	// through byte offset Off of generation Gen.
	mAck = byte(5)
	// mReject (primary → replica) refuses a session because the hello's
	// fence proves the primary is deposed; Fence echoes the winning token.
	mReject = byte(6)
	// mHeartbeat (primary → replica) is mState re-sent on an idle stream:
	// liveness plus the replica's staleness reference.
	mHeartbeat = byte(7)
)

// maxMsg bounds any single message (the snapshot payload dominates).
const maxMsg = 1 << 28

// msg is the decoded union of every message type.
type msg struct {
	Kind  byte
	Gen   uint64
	Off   int64  // hello/chunk/ack: byte offset; state/heartbeat: durable length
	Seq   uint64 // state/heartbeat: committed batch seq
	Fence uint64
	Data  []byte // snapshot / chunk payload
}

var errFrame = errors.New("replica: malformed protocol frame")

// header sizes per kind: the fixed-width fields preceding Data.
func fixedLen(kind byte) (int, error) {
	switch kind {
	case mHello:
		return 8 + 8 + 8, nil // gen, off, fence
	case mState, mHeartbeat:
		return 8 + 8 + 8 + 8, nil // gen, durable, seq, fence
	case mSnapshot:
		return 8 + 8, nil // gen, fence; data follows
	case mChunk:
		return 8 + 8, nil // gen, off; data follows
	case mAck:
		return 8 + 8, nil // gen, off
	case mReject:
		return 8, nil // fence
	default:
		return 0, fmt.Errorf("%w: unknown type %d", errFrame, kind)
	}
}

// encode appends m's wire form to buf.
func (m msg) encode(buf []byte) []byte {
	fixed, err := fixedLen(m.Kind)
	if err != nil {
		panic("replica: encoding unknown message type")
	}
	total := 1 + fixed + len(m.Data)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(total))
	buf = append(buf, m.Kind)
	switch m.Kind {
	case mHello:
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Off))
		buf = binary.LittleEndian.AppendUint64(buf, m.Fence)
	case mState, mHeartbeat:
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Off))
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, m.Fence)
	case mSnapshot:
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
		buf = binary.LittleEndian.AppendUint64(buf, m.Fence)
	case mChunk:
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Off))
	case mAck:
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Off))
	case mReject:
		buf = binary.LittleEndian.AppendUint64(buf, m.Fence)
	}
	return append(buf, m.Data...)
}

// decodeMsg parses one message body (everything after the u32 length).
func decodeMsg(body []byte) (msg, error) {
	if len(body) < 1 {
		return msg{}, fmt.Errorf("%w: empty body", errFrame)
	}
	m := msg{Kind: body[0]}
	fixed, err := fixedLen(m.Kind)
	if err != nil {
		return msg{}, err
	}
	p := body[1:]
	if len(p) < fixed {
		return msg{}, fmt.Errorf("%w: type %d body %d < %d", errFrame, m.Kind, len(p), fixed)
	}
	switch m.Kind {
	case mHello:
		m.Gen = binary.LittleEndian.Uint64(p)
		m.Off = int64(binary.LittleEndian.Uint64(p[8:]))
		m.Fence = binary.LittleEndian.Uint64(p[16:])
	case mState, mHeartbeat:
		m.Gen = binary.LittleEndian.Uint64(p)
		m.Off = int64(binary.LittleEndian.Uint64(p[8:]))
		m.Seq = binary.LittleEndian.Uint64(p[16:])
		m.Fence = binary.LittleEndian.Uint64(p[24:])
	case mSnapshot:
		m.Gen = binary.LittleEndian.Uint64(p)
		m.Fence = binary.LittleEndian.Uint64(p[8:])
	case mChunk:
		m.Gen = binary.LittleEndian.Uint64(p)
		m.Off = int64(binary.LittleEndian.Uint64(p[8:]))
	case mAck:
		m.Gen = binary.LittleEndian.Uint64(p)
		m.Off = int64(binary.LittleEndian.Uint64(p[8:]))
	case mReject:
		m.Fence = binary.LittleEndian.Uint64(p)
	}
	if fixed < len(p) {
		if m.Kind != mSnapshot && m.Kind != mChunk {
			return msg{}, fmt.Errorf("%w: type %d carries unexpected payload", errFrame, m.Kind)
		}
		m.Data = append([]byte(nil), p[fixed:]...)
	}
	return m, nil
}

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, m msg) error {
	_, err := w.Write(m.encode(nil))
	return err
}

// readMsg reads one length-prefixed message.
func readMsg(r io.Reader) (msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return msg{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxMsg {
		return msg{}, fmt.Errorf("%w: implausible length %d", errFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return msg{}, err
	}
	return decodeMsg(body)
}
