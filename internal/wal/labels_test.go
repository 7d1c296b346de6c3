package wal

import (
	"bytes"
	"math"
	"path"
	"reflect"
	"testing"

	"structura/internal/stats"
)

// Every test in this package checks that no label epoch the log retains
// is modified after it was journaled.
func init() { checkBaselines = true }

// randLabels builds a deterministic pseudo-random label set over n nodes.
func randLabels(seed int64, n int, hasCDS bool) *LabelSet {
	r := stats.NewRand(seed)
	ls := &LabelSet{Dest: r.Intn(n), HasCDS: hasCDS}
	ls.Dist = make([]float64, n)
	ls.Next = make([]int32, n)
	ls.MIS = make([]bool, n)
	for i := 0; i < n; i++ {
		if r.Intn(10) == 0 {
			ls.Dist[i] = math.Inf(1)
			ls.Next[i] = -1
		} else {
			ls.Dist[i] = float64(r.Intn(20))
			ls.Next[i] = int32(r.Intn(n))
		}
		ls.MIS[i] = r.Intn(3) == 0
	}
	if hasCDS {
		ls.CDS = make([]bool, n)
		for i := range ls.CDS {
			ls.CDS[i] = r.Intn(4) == 0
		}
	}
	return ls
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

// mutateLabels flips a seeded fraction of cur's entries in place.
func mutateLabels(seed int64, ls *LabelSet, changes int) {
	r := stats.NewRand(seed)
	n := ls.N()
	for i := 0; i < changes; i++ {
		v := r.Intn(n)
		switch r.Intn(3) {
		case 0:
			ls.Dist[v] = float64(r.Intn(30))
			ls.Next[v] = int32(r.Intn(n))
		case 1:
			ls.MIS[v] = !ls.MIS[v]
		case 2:
			if ls.HasCDS {
				ls.CDS[v] = !ls.CDS[v]
			}
		}
	}
}

// diffAll is diffLabels with every node a candidate.
func diffAll(prev, cur *LabelSet) []*LabelDelta {
	nodes := make([]int, cur.N())
	for i := range nodes {
		nodes[i] = i
	}
	var base LabelReader
	if prev != nil {
		base = prev
	}
	return diffLabels(base, cur, nodes)
}

// readLabels copies the epoch r reads into a LabelSet (nil for nil).
func readLabels(r LabelReader) *LabelSet {
	if r == nil {
		return nil
	}
	n := r.N()
	ls := &LabelSet{Dest: r.Destination(), HasCDS: r.HasBackbone(),
		Dist: make([]float64, n), Next: make([]int32, n), MIS: make([]bool, n)}
	if ls.HasCDS {
		ls.CDS = make([]bool, n)
	}
	for v := 0; v < n; v++ {
		ls.Dist[v], ls.Next[v] = r.Route(v)
		ls.MIS[v] = r.InMIS(v)
		if ls.HasCDS {
			ls.CDS[v] = r.InCDS(v)
		}
	}
	return ls
}

func labelsEqual(a, b *LabelSet) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Dest != b.Dest || a.HasCDS != b.HasCDS || a.N() != b.N() {
		return false
	}
	for i := range a.Dist {
		if a.Next[i] != b.Next[i] || a.MIS[i] != b.MIS[i] {
			return false
		}
		if a.Dist[i] != b.Dist[i] && !(math.IsNaN(a.Dist[i]) && math.IsNaN(b.Dist[i])) {
			return false
		}
	}
	if a.HasCDS && !reflect.DeepEqual(a.CDS, b.CDS) {
		return false
	}
	return true
}

func TestLabelDeltaRoundTrip(t *testing.T) {
	deltas := []*LabelDelta{
		{Kind: LabelRoute, Reset: true, N: 4, Dest: 2,
			Nodes: []int32{0, 1, 2, 3}, Dists: []float64{1, 0, math.Inf(1), 2}, Nexts: []int32{1, -1, -1, 0}},
		{Kind: LabelMIS, N: 4, Nodes: []int32{2}, Bits: []bool{true}},
		{Kind: LabelCDS, Reset: true, N: 5, Nodes: []int32{0, 4}, Bits: []bool{true, false}},
		{Kind: LabelCDS, Absent: true, N: 5, Nodes: []int32{}},
		{Kind: LabelRoute, N: 0, Nodes: []int32{}, Dists: []float64{}, Nexts: []int32{}},
	}
	for i, d := range deltas {
		enc := EncodeLabelDelta(d)
		got, err := DecodeLabelDelta(enc)
		if err != nil {
			t.Fatalf("delta %d: decode: %v", i, err)
		}
		if got.Kind != d.Kind || got.Reset != d.Reset || got.Absent != d.Absent ||
			got.N != d.N || got.Dest != d.Dest || len(got.Nodes) != len(d.Nodes) {
			t.Fatalf("delta %d: round trip changed header: %+v vs %+v", i, got, d)
		}
		if !bytes.Equal(EncodeLabelDelta(got), enc) {
			t.Fatalf("delta %d: re-encode is not the identity", i)
		}
	}
	// Label deltas also flow through the generic record codec.
	r := Record{Type: TLabelDelta, Label: deltas[0]}
	rr, err := DecodeRecord(EncodeRecord(r))
	if err != nil {
		t.Fatalf("record codec: %v", err)
	}
	if rr.Label == nil || rr.Label.Kind != LabelRoute || rr.Label.Dest != 2 {
		t.Fatalf("record codec lost the delta: %+v", rr.Label)
	}
}

// TestDiffApplyLabels drives diffLabels/applyLabelDelta through seeded label
// histories: applying the diff to the previous epoch must reproduce the
// next, including the nil→full and CDS appear/disappear transitions.
func TestDiffApplyLabels(t *testing.T) {
	const n = 64
	var prev *LabelSet
	applied := &LabelSet{}
	cur := randLabels(1, n, true)
	for step := 0; step < 12; step++ {
		switch step {
		case 5: // CDS retires
			cur.HasCDS = false
			cur.CDS = nil
		case 8: // CDS returns
			cur.HasCDS = true
			cur.CDS = make([]bool, n)
			cur.CDS[3] = true
		default:
			if step > 0 {
				mutateLabels(int64(step), cur, 10)
			}
		}
		deltas := diffAll(prev, cur)
		for _, d := range deltas {
			// Deltas must survive their own codec before applying.
			dd, err := DecodeLabelDelta(EncodeLabelDelta(d))
			if err != nil {
				t.Fatalf("step %d: delta codec: %v", step, err)
			}
			if !applyLabelDelta(applied, dd) {
				t.Fatalf("step %d: delta did not apply: %+v", step, dd)
			}
		}
		if !labelsEqual(applied, cur) {
			t.Fatalf("step %d: applied diff diverged from target", step)
		}
		prev = cur.Clone()
	}
	// No-op diff is empty.
	if d := diffAll(prev, prev.Clone()); len(d) != 0 {
		t.Fatalf("identical sets produced %d delta(s)", len(d))
	}
}

func TestSnapshotLabelSection(t *testing.T) {
	g := ringGraph(10)
	ls := randLabels(3, 10, true)
	ls.Seq = 17
	data := EncodeSnapshotLabels(g, 17, 40, ls, ls.Seq)
	g2, seq, cum, ls2, err := DecodeSnapshotLabels(data)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 17 || cum != 40 || GraphHash(g2) != GraphHash(g) {
		t.Fatalf("snapshot provenance or topology diverged (seq %d cum %d)", seq, cum)
	}
	if ls2 == nil || ls2.Seq != 17 || !labelsEqual(ls, ls2) {
		t.Fatalf("label section did not round trip")
	}
	// Nil labels: empty section, decodes to nil.
	_, _, _, lsNil, err := DecodeSnapshotLabels(EncodeSnapshotLabels(g, 1, 2, nil, 0))
	if err != nil || lsNil != nil {
		t.Fatalf("empty label section: ls=%v err=%v", lsNil, err)
	}
}

// TestAppendLabelsRecover journals batches interleaved with label epochs and
// requires Open to reconstruct the exact label set with an empty dirty set,
// both from the live log and across a compaction (snapshot-embedded labels).
func TestAppendLabelsRecover(t *testing.T) {
	for _, compactEvery := range []int{-1, 4} {
		fsys := NewMemFS()
		l, err := Create("d", ringGraph(32), Options{FS: fsys, CompactEvery: compactEvery})
		if err != nil {
			t.Fatal(err)
		}
		ls := randLabels(7, 32, true)
		for i, batch := range seededBatches(11, 32, 10, 4) {
			if _, err := l.Append(batch); err != nil {
				t.Fatal(err)
			}
			// The log retains each epoch it journals: the next is a copy.
			ls = ls.Clone()
			mutateLabels(int64(i), ls, 6)
			if _, err := l.AppendLabels(ls); err != nil {
				t.Fatal(err)
			}
		}
		want := readLabels(l.Labels())
		want.Seq = l.Metrics().LabelSeq
		wantHash := GraphHash(l.Graph())
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, rec, err := Open("d", Options{FS: fsys.CrashImage(0), CompactEvery: compactEvery})
		if err != nil {
			t.Fatal(err)
		}
		if GraphHash(l2.Graph()) != wantHash {
			t.Fatalf("compactEvery=%d: recovered topology diverged", compactEvery)
		}
		if rec.Labels == nil || !labelsEqual(rec.Labels, want) || rec.Labels.Seq != want.Seq {
			t.Fatalf("compactEvery=%d: recovered labels diverged (got seq %v, want %d)",
				compactEvery, rec.Labels, want.Seq)
		}
		if len(rec.Dirty) != 0 {
			t.Fatalf("compactEvery=%d: %d dirty node(s) on a label-current store", compactEvery, len(rec.Dirty))
		}
		if rec.RecoveryNs <= 0 {
			t.Fatalf("recovery time not measured")
		}
		l2.Close()
	}
}

// TestModifiedBaselineFailsLoudly: the log retains the epoch it journaled
// rather than a copy, so a caller that modifies it afterwards would corrupt
// the next delta or snapshot. The next journal and the next compaction
// refuse instead.
func TestModifiedBaselineFailsLoudly(t *testing.T) {
	for _, compact := range []bool{false, true} {
		l, err := Create("d", ringGraph(16), Options{FS: NewMemFS(), CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		ls := randLabels(3, 16, true)
		if _, err := l.AppendLabels(ls); err != nil {
			t.Fatal(err)
		}
		ls.MIS[5] = !ls.MIS[5]
		if compact {
			err = l.compact()
		} else {
			_, err = l.AppendLabels(ls.Clone())
		}
		if err == nil {
			t.Fatalf("compact=%v: a baseline modified after journaling went unnoticed", compact)
		}
		l.Close()
	}
}

// TestLabelLagDirty crashes with the label epoch trailing the topology by
// two batches and requires recovery to report exactly the trailing batches'
// nodes as dirty.
func TestLabelLagDirty(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(16), Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ls := randLabels(5, 16, false)
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 5, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendLabels(ls); err != nil {
		t.Fatal(err)
	}
	// Two batches after the last label epoch.
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 2, V: 9, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Record{{Type: TRemoveEdge, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rec, err := Open("d", Options{FS: fsys.CrashImage(0), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Labels == nil || rec.Labels.Seq != 1 {
		t.Fatalf("labels: %+v, want epoch at seq 1", rec.Labels)
	}
	if got := l2.Metrics().LabelSeq; got != 1 {
		t.Fatalf("Metrics().LabelSeq = %d after recovery, want the recovered epoch's 1", got)
	}
	want := map[int]bool{2: true, 9: true, 0: true, 1: true}
	if len(rec.Dirty) != len(want) {
		t.Fatalf("dirty %v, want the 4 trailing endpoints", rec.Dirty)
	}
	for _, v := range rec.Dirty {
		if !want[v] {
			t.Fatalf("dirty %v contains unexpected node %d", rec.Dirty, v)
		}
	}
}

// TestUnmovedLabelEpochAdvancesSeq journals a label epoch in which no
// label moved and requires recovery to find the labels current, with no
// dirty node, while journaling an epoch already current writes nothing.
func TestUnmovedLabelEpochAdvancesSeq(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(16), Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ls := randLabels(9, 16, true)
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 5, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendLabels(ls); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 2, V: 9, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendLabelChanges(ls.Clone(), []int{2, 9}); err != nil {
		t.Fatal(err)
	}
	if n, err := l.AppendLabelChanges(ls.Clone(), []int{2, 9}); n != 0 || err != nil {
		t.Fatalf("journaling a current epoch wrote %d record(s), err %v", n, err)
	}
	l.Close()

	_, rec, err := Open("d", Options{FS: fsys.CrashImage(0), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Labels == nil || rec.Labels.Seq != rec.Seq || !labelsEqual(rec.Labels, readLabels(ls)) {
		t.Fatalf("labels %+v, want the journaled epoch at seq %d", rec.Labels, rec.Seq)
	}
	if len(rec.Dirty) != 0 {
		t.Fatalf("dirty %v on a label-current store", rec.Dirty)
	}
}

// TestApplierStreamChunks feeds a primary's live log to an Applier in
// adversarially-sized chunks (1 byte at a time included) and requires the
// applied state to match the primary byte-for-byte semantics.
func TestApplierStreamChunks(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(24), Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ls := randLabels(2, 24, true)
	for i, batch := range seededBatches(3, 24, 8, 5) {
		if _, err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
		ls = ls.Clone()
		mutateLabels(int64(i+40), ls, 4)
		if _, err := l.AppendLabels(ls); err != nil {
			t.Fatal(err)
		}
	}
	gen, durable, seq := l.ReplState()
	if gen == 0 || durable <= int64(logHeaderLen) || seq != 8 {
		t.Fatalf("repl state gen=%d durable=%d seq=%d", gen, durable, seq)
	}

	// The snapshot seeds the applier; the log suffix streams in chunks.
	sgen, snapData, err := l.SnapshotBytes()
	if err != nil || sgen != gen {
		t.Fatalf("snapshot bytes: gen=%d err=%v", sgen, err)
	}
	g0, snapSeq, snapCum, ls0, err := DecodeSnapshotLabels(snapData)
	if err != nil {
		t.Fatal(err)
	}
	a := NewApplier(g0, ls0, snapSeq)

	var stream []byte
	for off := int64(0); off < durable; {
		chunk, err := l.LogChunk(gen, off, 37)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			t.Fatalf("empty chunk at offset %d < durable %d", off, durable)
		}
		stream = append(stream, chunk...)
		off += int64(len(chunk))
	}
	if n := streamPrefix(stream, encodeLogHeader(gen, snapSeq, snapCum)); n != len(stream) {
		t.Fatalf("stream valid through %d of %d byte(s)", n, len(stream))
	}
	body := stream[logHeaderLen:]
	sm := splitmix{state: 99}
	for off := 0; off < len(body); {
		n := int(sm.next()%16) + 1
		if off+n > len(body) {
			n = len(body) - off
		}
		if err := a.Feed(body[off : off+n]); err != nil {
			t.Fatalf("feed at %d: %v", off, err)
		}
		off += n
	}
	if a.Buffered() != 0 {
		t.Fatalf("%d byte(s) left buffered after a complete stream", a.Buffered())
	}
	if a.Seq != l.Seq() || GraphHash(a.G) != GraphHash(l.Graph()) {
		t.Fatalf("applied stream diverged: seq %d vs %d", a.Seq, l.Seq())
	}
	if !a.UsableLabels() || !labelsEqual(a.Labels, readLabels(l.Labels())) {
		t.Fatalf("applied labels diverged")
	}
	if d := a.Dirty(); len(d) != 0 {
		t.Fatalf("dirty %v on a label-current stream", d)
	}
	l.Close()
}

// TestLogChunkGenGone requires LogChunk to refuse superseded generations so
// a replica resyncs instead of splicing streams.
func TestLogChunkGenGone(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(8), Options{FS: fsys, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen0, _, _ := l.ReplState()
	for _, batch := range seededBatches(9, 8, 4, 2) {
		if _, err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	gen1, _, _ := l.ReplState()
	if gen1 <= gen0 {
		t.Fatalf("compaction did not advance the generation: %d -> %d", gen0, gen1)
	}
	if _, err := l.LogChunk(gen0, int64(logHeaderLen), 100); err != ErrGenGone {
		t.Fatalf("LogChunk(stale gen) = %v, want ErrGenGone", err)
	}
	l.Close()
}

// TestPromoteFencing: Promote bumps the fencing token durably, and a
// MarkFenced store rejects all appends.
func TestPromoteFencing(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(4), Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if l.FenceToken() != 1 {
		t.Fatalf("fresh store fence %d, want 1", l.FenceToken())
	}
	l.Close()

	img := fsys.CrashImage(0)
	p, rec, err := Promote("d", Options{FS: img, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.FenceToken() != 2 || rec.Fence != 2 {
		t.Fatalf("promoted fence %d (rec %d), want 2", p.FenceToken(), rec.Fence)
	}
	p.Close()

	// The bump is durable: a plain re-open sees it.
	l2, rec2, err := Open("d", Options{FS: img.CrashImage(0), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	_ = rec2
	if l2.FenceToken() != 2 {
		t.Fatalf("reopened fence %d, want 2", l2.FenceToken())
	}
	l2.MarkFenced()
	if _, err := l2.Append([]Record{{Type: TAddEdge, U: 0, V: 2, Weight: 1}}); err != ErrFenced {
		t.Fatalf("append on fenced store = %v, want ErrFenced", err)
	}
	if _, err := l2.AppendLabels(&LabelSet{}); err != ErrFenced {
		t.Fatalf("label append on fenced store = %v, want ErrFenced", err)
	}
	l2.Close()
}

// TestTornResizedEpochIsDropped tears a label epoch that changes the
// label-array length after its first records: the store journaled a stale
// 20-node epoch over its 10-node graph, and the next epoch — back to one
// label per node — lost its later records in a crash. An image that kept
// the route records but lost the membership ones holds arrays of two
// lengths; recovery must drop such an epoch rather than install it in the
// snapshot it writes, or the store no longer opens. The whole epoch
// recovers.
func TestTornResizedEpochIsDropped(t *testing.T) {
	for _, hasCDS := range []bool{false, true} {
		stale, next := randLabels(1, 20, hasCDS), randLabels(2, 10, hasCDS)
		deltas := diffAll(stale, next)
		for keep := 1; keep <= len(deltas); keep++ {
			fsys := NewMemFS()
			l, err := Create("d", ringGraph(10), Options{FS: fsys, CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendLabels(stale); err != nil {
				t.Fatal(err)
			}
			logName := path.Join("d", l.logName)
			l.Close()
			data, err := fsys.ReadFile(logName)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range deltas[:keep] {
				data = appendFrame(data, Record{Type: TLabelDelta, Label: d})
			}
			if err := writeFileDurable(fsys, logName, data); err != nil {
				t.Fatal(err)
			}
			whole := keep == len(deltas)
			for open := 1; open <= 2; open++ {
				l2, rec, err := Open("d", Options{FS: fsys, CompactEvery: -1})
				if err != nil {
					t.Fatalf("cds %t, %d of %d record(s): open %d: %v", hasCDS, keep, len(deltas), open, err)
				}
				if ls := rec.Labels; (ls != nil) != whole || ls != nil && !labelsEqual(ls, next) {
					t.Errorf("cds %t, %d of %d record(s): open %d recovered labels %v, want them only from the whole epoch",
						hasCDS, keep, len(deltas), open, ls != nil)
				}
				l2.Close()
			}
		}
	}
}
