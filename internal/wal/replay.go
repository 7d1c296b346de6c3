package wal

import (
	"errors"
	"fmt"
	"os"
	"path"

	"structura/internal/graph"
)

// Recovery reports what Open (or Replay) reconstructed from disk.
type Recovery struct {
	SnapshotSeq uint64 // batch seq of the snapshot replay started from
	Seq         uint64 // last committed batch recovered
	Batches     int    // committed batches replayed from the log suffix
	Records     uint64 // cumulative mutation records in the recovered state
	Replayed    int    // mutation records replayed from the log suffix
	Nodes       int    // node count of the recovered graph
	TruncatedAt int64  // log offset of the first unusable byte (-1: clean tail)
	Reason      string // why the log was truncated there, "" when clean

	Gen   uint64 // generation counter of the recovered superblock
	Fence uint64 // fencing token of the recovered superblock (0: v1 store)

	// Labels is the recovered durable label epoch — snapshot section plus
	// replayed label deltas — or nil when the store never journaled
	// labels. Labels.Seq is the batch the epoch reflects; it can trail Seq
	// (labels are written after their batch's commit marker, so a crash
	// between the two loses only the label suffix).
	Labels        *LabelSet
	LabelRecords  int   // label-delta records replayed from the log suffix
	LabelsIgnored int   // label records replayed but dropped with an epoch that could not describe the recovered graph
	Dirty         []int // nodes mutated after Labels.Seq — heal seeds for a warm start
	RecoveryNs    int64 // wall time Open spent replaying durable state
}

// Truncated reports whether recovery discarded a torn or corrupt tail.
func (r Recovery) Truncated() bool { return r.TruncatedAt >= 0 }

// ErrStopReplay, returned by a Replay callback, stops the scan cleanly —
// the range-scan early exit for windowed loads.
var ErrStopReplay = errors.New("wal: stop replay")

// Replay streams the durable committed history in dir, read-only: first
// every edge of the superblock's snapshot (as synthetic TAddEdge records
// whose Seq is the snapshot's batch seq — earlier history is compacted
// away), then every *applied* mutation record of each committed batch in
// order, each with the batch in Seq, then the batch's TCommit marker.
// Records of uncommitted or torn tails are never surfaced. The callback may
// return ErrStopReplay to end the scan early; any other error aborts and is
// returned.
func Replay(fsys FS, dir string, fn func(Record) error) (Recovery, error) {
	if fsys == nil {
		fsys = OS()
	}
	_, rec, err := replayDir(fsys, dir, fn)
	return rec, err
}

// replayDir loads the superblock, snapshot, and committed log prefix of
// dir. fn, when non-nil, observes the stream as documented on Replay.
func replayDir(fsys FS, dir string, fn func(Record) error) (*graph.Graph, Recovery, error) {
	rec := Recovery{TruncatedAt: -1}

	sbData, err := fsys.ReadFile(path.Join(dir, superName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, rec, fmt.Errorf("%w: %s", ErrNoStore, dir)
		}
		return nil, rec, err
	}
	sb, err := decodeSuper(sbData)
	if err != nil {
		return nil, rec, err
	}

	snapData, err := fsys.ReadFile(path.Join(dir, sb.snapName))
	if err != nil {
		return nil, rec, fmt.Errorf("%w: superblock names missing snapshot %s: %v", ErrCorrupt, sb.snapName, err)
	}
	g, snapSeq, snapCum, labels, err := DecodeSnapshotLabels(snapData)
	if err != nil {
		return nil, rec, err
	}
	if snapSeq != sb.snapSeq {
		return nil, rec, fmt.Errorf("%w: snapshot %s is batch %d, superblock says %d",
			ErrCorrupt, sb.snapName, snapSeq, sb.snapSeq)
	}
	rec.SnapshotSeq = snapSeq
	rec.Seq = snapSeq
	rec.Records = snapCum
	rec.Gen = sb.gen
	rec.Fence = sb.fence
	rec.Labels = labels

	if fn != nil {
		for _, e := range g.Edges() {
			r := Record{Type: TAddEdge, U: int32(e.From), V: int32(e.To), Weight: e.Weight, Seq: snapSeq}
			if ferr := fn(r); ferr != nil {
				if errors.Is(ferr, ErrStopReplay) {
					rec.Nodes = g.N()
					return g, rec, nil
				}
				return nil, rec, ferr
			}
		}
	}

	logData, lerr := fsys.ReadFile(path.Join(dir, sb.logName))
	switch {
	case errors.Is(lerr, os.ErrNotExist):
		// The superblock swap is durable before old-generation removal, so
		// a referenced-but-missing log cannot come from a crash: note it
		// and recover from the snapshot alone.
		rec.TruncatedAt = 0
		rec.Reason = "log file missing"
	case lerr != nil:
		return nil, rec, lerr
	default:
		if err := recoverLog(logData, g, &rec, fn); err != nil {
			return nil, rec, err
		}
	}
	rec.Nodes = g.N()
	return g, rec, nil
}

// recoverLog feeds the frames of one log generation to an Applier over the
// snapshot state in g and rec, truncating at the last sealed batch where
// the stream breaks off. Only a log header of another version or a
// callback error can fail it.
func recoverLog(data []byte, g *graph.Graph, rec *Recovery, fn func(Record) error) error {
	gen, startSeq, startCum, err := decodeLogHeader(data)
	if errors.Is(err, errLogVersion) {
		// A whole, checksummed header of another version is no torn
		// write: recovering the snapshot alone would let the next
		// generation install delete the log.
		return err
	}
	if err != nil {
		// The header is written and fsynced before the superblock ever
		// references the generation; a torn header means the superblock
		// swap itself was interrupted in a way rename atomicity excludes,
		// so treat it as an empty suffix rather than failing recovery.
		rec.TruncatedAt = 0
		rec.Reason = fmt.Sprintf("unreadable log header: %v", err)
		return nil
	}
	if startSeq != rec.SnapshotSeq || startCum != rec.Records || (rec.Gen != 0 && gen != rec.Gen) {
		rec.TruncatedAt = 0
		rec.Reason = fmt.Sprintf("log generation (gen %d, seq %d, cum %d) does not match superblock (gen %d, seq %d, cum %d)",
			gen, startSeq, startCum, rec.Gen, rec.SnapshotSeq, rec.Records)
		return nil
	}

	a := NewApplier(g, rec.Labels, rec.Seq)
	var stop error
	if fn != nil {
		a.OnCommit = func(commit Record, applied []Record) error {
			for _, r := range applied {
				if stop = fn(r); stop != nil {
					return stop
				}
			}
			stop = fn(commit)
			return stop
		}
	}
	switch ferr := a.Feed(data[logHeaderLen:]); {
	case stop != nil:
		if !errors.Is(stop, ErrStopReplay) {
			return stop
		}
	case ferr != nil:
		rec.TruncatedAt, rec.Reason = a.sealed, ferr.Error()
	case len(a.pending) > 0:
		rec.TruncatedAt = a.sealed
		rec.Reason = fmt.Sprintf("%d record(s) after the last commit marker", len(a.pending))
	case a.Buffered() > 0:
		rec.TruncatedAt = a.sealed
		rec.Reason = fmt.Sprintf("torn frame at offset %d", a.sealed)
	}
	rec.Seq = a.Seq
	rec.Batches = a.Batches
	rec.Replayed = int(a.Records)
	rec.Records += a.Records
	rec.LabelRecords = a.LabelRecords
	rec.Labels = nil
	if a.UsableLabels() {
		rec.Labels, rec.Dirty = a.Labels, a.Dirty()
	} else if a.Labels != nil {
		// A recovered label epoch that cannot describe the recovered graph
		// (an array whose length is not the node count) is unusable; drop
		// it rather than warm-start from a mismatched array.
		rec.LabelsIgnored, rec.LabelRecords = rec.LabelRecords, 0
	}
	return nil
}

// batchTouched records which nodes one committed batch mutated, so the
// warm-start path can heal exactly the suffix the durable labels missed.
type batchTouched struct {
	seq   uint64
	nodes []int32
}

// dirtyAfter flattens the touched sets of every batch newer than labelSeq
// into a deduplicated node list.
func dirtyAfter(touched []batchTouched, labelSeq uint64) []int {
	seen := make(map[int32]struct{})
	var out []int
	for _, bt := range touched {
		if bt.seq <= labelSeq {
			continue
		}
		for _, v := range bt.nodes {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, int(v))
		}
	}
	return out
}
