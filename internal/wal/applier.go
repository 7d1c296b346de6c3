package wal

import (
	"encoding/binary"
	"fmt"

	"structura/internal/graph"
)

// Applier is the log's one commit state machine: it consumes a log
// generation's frame stream (everything after the header) and applies
// committed batches and label deltas to a base state. A record's batch is
// where it sits: an edge record belongs to the commit marker that seals it,
// a label delta reflects the last commit marker before it — so labels can
// never be stamped ahead of the topology. Recovery feeds it a
// whole log file and truncates at the last sealed batch when the stream
// breaks off; a replica's Mirror feeds it arbitrary prefixes of the
// primary's stream as their bytes become durable. A partial trailing frame is buffered until the
// rest arrives — for a replica, whose stream is a byte-for-byte prefix of
// the primary's durable log, a mid-frame cut is always "need more bytes".
// A framing, checksum or sealing violation fails Feed: the rest of the
// stream is unusable.
type Applier struct {
	G      *graph.Graph
	Labels *LabelSet

	Seq          uint64 // last committed batch applied
	Batches      int    // committed batches applied
	Records      uint64 // mutation records sealed by the applied batches
	LabelRecords int    // label deltas applied

	// OnCommit, when set, observes every committed batch as it applies:
	// its commit marker and those of its records that changed the graph,
	// each carrying the batch in Seq (the slice is reused after the call
	// returns). A non-nil error stops
	// Feed, which returns it unwrapped. Replay's callback runs here.
	OnCommit func(commit Record, applied []Record) error

	off     int64 // log file offset of buf[0]
	sealed  int64 // log file offset just past the last batch-sealing or between-batch frame
	pending []Record
	applied []Record
	touched []batchTouched
	buf     []byte
}

// NewApplier starts an applier over a recovered base state: g and labels
// come from the snapshot (labels may be nil), seq is the batch the base
// reflects. Offsets in its errors count from the start of the log file,
// whose header the caller strips before feeding.
func NewApplier(g *graph.Graph, labels *LabelSet, seq uint64) *Applier {
	return &Applier{G: g, Labels: labels, Seq: seq, off: logHeaderLen, sealed: logHeaderLen}
}

// Buffered returns how many bytes of an incomplete trailing frame are
// waiting for the rest of the stream.
func (a *Applier) Buffered() int { return len(a.buf) }

// Feed consumes p: every complete frame is parsed and applied, a trailing
// partial frame is buffered for the next call. Any framing, checksum or
// sealing violation fails the rest of the stream: a replica resyncs from a
// snapshot, recovery truncates at the last sealed batch.
func (a *Applier) Feed(p []byte) error {
	data := p
	if len(a.buf) > 0 {
		a.buf = append(a.buf, p...)
		data = a.buf
	}
	off := 0
	defer func() {
		a.off += int64(off)
		a.buf = append(a.buf[:0], data[off:]...)
	}()
	for {
		n, complete, err := frameLen(data[off:])
		var r Record
		if err == nil && complete {
			if r, _, err = readFrame(data[off : off+n]); err == nil {
				err = a.apply(r)
			}
		}
		if err != nil {
			return fmt.Errorf("wal: at log offset %d: %w", a.off+int64(off), err)
		}
		if !complete {
			return nil
		}
		off += n
		if len(a.pending) > 0 {
			continue
		}
		a.sealed = a.off + int64(off)
		if r.Type == TCommit && a.OnCommit != nil {
			if err := a.OnCommit(r, a.applied); err != nil {
				return err
			}
		}
	}
}

// frameLen inspects a frame header without decoding the payload: it
// returns the full frame length and whether data holds all of it. Only an
// implausible declared length is an error — short data just isn't complete
// yet.
func frameLen(data []byte) (n int, complete bool, err error) {
	if len(data) < frameHeader {
		return 0, false, nil
	}
	pl := binary.LittleEndian.Uint32(data)
	if pl == 0 || pl > maxPayload {
		return 0, false, fmt.Errorf("%w: implausible payload length %d", ErrTorn, pl)
	}
	n = frameHeader + int(pl)
	return n, len(data) >= n, nil
}

func (a *Applier) apply(r Record) error {
	switch r.Type {
	case TLabelDelta:
		if len(a.pending) > 0 {
			return fmt.Errorf("%w: label record inside an uncommitted batch", ErrTorn)
		}
		if a.Labels == nil {
			a.Labels = &LabelSet{}
		}
		if applyLabelDelta(a.Labels, r.Label) {
			a.Labels.Seq = a.Seq
			a.LabelRecords++
			a.pruneTouched()
		}
		return nil
	case TCommit:
		if r.Seq != a.Seq+1 || int(r.Count) != len(a.pending) {
			return fmt.Errorf("%w: commit marker (seq %d, count %d) does not seal batch %d of %d record(s)",
				ErrTorn, r.Seq, r.Count, a.Seq+1, len(a.pending))
		}
		var nodes []int32
		a.applied = a.applied[:0]
		for _, pr := range a.pending {
			if applyRecord(a.G, pr) {
				pr.Seq = r.Seq
				nodes = append(nodes, pr.U, pr.V)
				a.applied = append(a.applied, pr)
			}
		}
		a.Seq = r.Seq
		a.Batches++
		a.Records += uint64(len(a.pending))
		a.touched = append(a.touched, batchTouched{seq: r.Seq, nodes: nodes})
		a.pending = a.pending[:0]
		return nil
	default:
		a.pending = append(a.pending, r)
		return nil
	}
}

// pruneTouched drops touched sets already covered by the label epoch, so
// the dirty backlog stays bounded by the label lag, not the uptime.
func (a *Applier) pruneTouched() {
	if a.Labels == nil {
		return
	}
	keep := a.touched[:0]
	for _, bt := range a.touched {
		if bt.seq > a.Labels.Seq {
			keep = append(keep, bt)
		}
	}
	a.touched = keep
}

// Dirty returns the nodes mutated by batches the label epoch has not yet
// covered — the heal seeds a promotion must sweep before serving
// authoritative answers.
func (a *Applier) Dirty() []int {
	if a.Labels == nil {
		return nil
	}
	return dirtyAfter(a.touched, a.Labels.Seq)
}

// UsableLabels reports whether the applied label epoch can describe the
// applied graph: present, and every array it holds is one label per node.
// A crash can tear an epoch that changed the label-array length between its
// route and membership records, leaving arrays of two lengths.
func (a *Applier) UsableLabels() bool {
	ls, n := a.Labels, a.G.N()
	return ls != nil && len(ls.Dist) == n && len(ls.Next) == n && len(ls.MIS) == n &&
		(!ls.HasCDS || len(ls.CDS) == n)
}
