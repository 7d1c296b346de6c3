package wal

import (
	"bytes"
	"errors"
	"math"
	"path"
	"slices"
	"testing"
)

// FuzzWALRecord pins the record codec's two safety properties: DecodeRecord
// never panics on arbitrary bytes (failures are the named ErrRecordType /
// ErrRecordLen), and every accepted payload re-encodes to the identical
// byte string — the canonical-form guarantee recovery's truncation logic
// relies on.
func FuzzWALRecord(f *testing.F) {
	for _, r := range []Record{
		{Type: TAddEdge, U: 1, V: 2, Weight: 1.5},
		{Type: TRemoveEdge, U: 1, V: 2},
		{Type: TCommit, Seq: 42, Count: 3},
		{Type: TLabelDelta, Label: &LabelDelta{Kind: LabelMIS, N: 4, Nodes: []int32{2}, Bits: []bool{true}}},
	} {
		f.Add(EncodeRecord(r))
	}
	// The retired type bytes, at the lengths their payloads had.
	f.Add([]byte{1})
	f.Add([]byte{2, 3, 0, 0, 0})
	f.Add(append([]byte{5}, make([]byte, 24)...))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 0, 0, 0, 2}) // truncated TAddEdge
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrRecordType) && !errors.Is(err, ErrRecordLen) {
				t.Fatalf("unnamed decode error: %v", err)
			}
			return
		}
		if got := EncodeRecord(r); !bytes.Equal(got, data) {
			t.Fatalf("decode∘encode is not the identity:\n in  %x\n out %x", data, got)
		}
	})
}

// FuzzLabelDelta pins the label-delta codec's safety properties: every byte
// string — and every prefix of it — either decodes or fails with a named
// error, never panics; every accepted input re-encodes to the identical
// bytes (canonical form); and applying an accepted delta to a label set
// never panics regardless of node indices or claimed lengths.
func FuzzLabelDelta(f *testing.F) {
	seeds := []*LabelDelta{
		{Kind: LabelRoute, Reset: true, N: 4, Dest: 1,
			Nodes: []int32{0, 1, 2, 3}, Dists: []float64{0, 1, 2, 3}, Nexts: []int32{-1, 0, 1, 2}},
		{Kind: LabelMIS, N: 8, Nodes: []int32{2, 7}, Bits: []bool{true, false}},
		{Kind: LabelCDS, Reset: true, N: 3, Nodes: []int32{1}, Bits: []bool{true}},
		{Kind: LabelCDS, Absent: true, N: 3, Nodes: []int32{}},
	}
	for _, d := range seeds {
		f.Add(EncodeLabelDelta(d))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TLabelDelta)})
	f.Add([]byte{byte(TLabelDelta), labelDeltaVer, 0, 0})
	f.Add([]byte{byte(TLabelDelta), labelDeltaVer, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // bad kind
	f.Fuzz(func(t *testing.T, data []byte) {
		// The prefix property: truncation at any byte is a clean error or
		// a (shorter) valid delta, never a panic. Large inputs sample
		// prefixes to stay out of O(n²).
		step := 1
		if len(data) > 256 {
			step = 13
		}
		for cut := len(data); cut >= 0; cut -= step {
			p := data[:cut]
			d, err := DecodeLabelDelta(p)
			if err != nil {
				if !errors.Is(err, ErrRecordType) && !errors.Is(err, ErrRecordLen) {
					t.Fatalf("unnamed decode error at prefix %d: %v", cut, err)
				}
				continue
			}
			if got := EncodeLabelDelta(d); !bytes.Equal(got, p) {
				t.Fatalf("decode∘encode is not the identity at prefix %d:\n in  %x\n out %x", cut, p, got)
			}
			// Applying an accepted delta must be safe for any node indices
			// (the claimed N is capped here only to bound allocation).
			if d.N <= 1<<16 {
				ls := &LabelSet{}
				applyLabelDelta(ls, d)
				applyLabelDelta(ls, d)
			}
		}
	})
}

// FuzzRecover splices arbitrary bytes in as the body of an otherwise valid
// store's log generation and requires recovery to hold its contract: Open
// never panics and never fails (the superblock and snapshot are intact, so
// the worst legal outcome is truncating the whole log suffix), the result
// is a committed-batch prefix consistent with the snapshot, and recovery is
// deterministic — two opens of the same image agree, and re-opening the
// rewritten store reproduces the same state with a clean tail.
func FuzzRecover(f *testing.F) {
	committed := appendFrame(nil, Record{Type: TAddEdge, U: 0, V: 2, Weight: 1})
	committed = appendFrame(committed, Record{Type: TCommit, Seq: 1, Count: 1})
	f.Add([]byte{})
	f.Add(append([]byte{}, committed...))
	f.Add(committed[:len(committed)-3])                              // torn commit marker
	f.Add(append(append([]byte{}, committed...), 0xff, 0, 0x13))     // committed batch + garbage tail
	f.Add(appendFrame(nil, Record{Type: TCommit, Seq: 9, Count: 0})) // commit from the future
	f.Add(appendFrame(nil, Record{Type: TRemoveEdge, U: 0, V: 1}))   // record never sealed
	f.Fuzz(func(t *testing.T, body []byte) {
		fsys := NewMemFS()
		l, err := Create("d", ringGraph(4), Options{FS: fsys, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		logName := l.logName
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Replace the log body, keeping the generation header valid.
		data, err := fsys.ReadFile(path.Join("d", logName))
		if err != nil {
			t.Fatal(err)
		}
		hdr := append([]byte{}, data[:logHeaderLen]...)
		fh, err := fsys.Create(path.Join("d", logName))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range [][]byte{hdr, body} {
			if _, err := fh.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := fh.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fsys.SyncDir("d"); err != nil {
			t.Fatal(err)
		}

		img1, img2 := fsys.CrashImage(0), fsys.CrashImage(0)
		l1, rec1, err := Open("d", Options{FS: img1, CompactEvery: -1})
		if err != nil {
			t.Fatalf("open with fuzzed log body: %v", err)
		}
		if rec1.SnapshotSeq != 0 {
			t.Fatalf("snapshot seq %d, want 0", rec1.SnapshotSeq)
		}
		if rec1.Batches != int(rec1.Seq) {
			t.Fatalf("recovered %d batch(es) but seq advanced to %d", rec1.Batches, rec1.Seq)
		}
		if rec1.Nodes < 4 || l1.Graph().N() != rec1.Nodes {
			t.Fatalf("recovered %d node(s) (graph has %d), want >= the 4 seeded", rec1.Nodes, l1.Graph().N())
		}
		h1 := GraphHash(l1.Graph())

		// Same image, independent open: recovery is deterministic.
		l2, rec2, err := Open("d", Options{FS: img2, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if rec2.Seq != rec1.Seq || GraphHash(l2.Graph()) != h1 {
			t.Fatalf("recovery diverged: seq %d/%d", rec1.Seq, rec2.Seq)
		}
		l2.Close()

		// The first open rewrote a fresh generation; reopening it must
		// reproduce the state exactly, now with nothing left to truncate.
		if err := l1.Close(); err != nil {
			t.Fatal(err)
		}
		l3, rec3, err := Open("d", Options{FS: img1, CompactEvery: -1})
		if err != nil {
			t.Fatalf("reopen after generation rewrite: %v", err)
		}
		defer l3.Close()
		if rec3.Seq != rec1.Seq || GraphHash(l3.Graph()) != h1 {
			t.Fatalf("rewritten store diverged: seq %d, want %d", rec3.Seq, rec1.Seq)
		}
		if rec3.Truncated() {
			t.Fatalf("rewritten store still has a torn tail: %s", rec3.Reason)
		}
	})
}

// FuzzMirrorOpen puts arbitrary bytes in as a mirror's log behind a valid
// snapshot and superblock and requires OpenMirror's contract: it never
// panics; it fails only when checksummed frames do not apply; otherwise the
// log it keeps is a prefix p of the input with streamPrefix(p) == len(p),
// its durable offset is len(p), its ack offset lies on a frame boundary,
// its view is the state recovery reaches on the same directory, and a
// second open keeps the same prefix.
func FuzzMirrorOpen(f *testing.F) {
	src := NewMemFS()
	l, err := Create("d", ringGraph(4), Options{FS: src, CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	for i, batch := range seededBatches(5, 4, 3, 2) {
		if _, err := l.Append(batch); err != nil {
			f.Fatal(err)
		}
		if _, err := l.AppendLabels(randLabels(int64(i), l.Graph().N(), false)); err != nil {
			f.Fatal(err)
		}
	}
	stream := append([]byte(nil), l.live...)
	l.Close()
	f.Add([]byte{})
	f.Add(stream[:logHeaderLen-1])
	f.Add(stream[:logHeaderLen])
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := NewMemFS()
		l, err := Create("d", ringGraph(4), Options{FS: fsys, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		logPath := path.Join("d", l.logName)
		l.Close()
		if err := writeFileDurable(fsys, logPath, data); err != nil {
			t.Fatal(err)
		}

		m, err := OpenMirror("d", Options{FS: fsys})
		if err != nil {
			if !errors.Is(err, ErrTorn) {
				t.Fatalf("open failed outside frame replay: %v", err)
			}
			return
		}
		p, err := fsys.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, p) || streamPrefix(p, m.header) != len(p) || m.Durable() != int64(len(p)) {
			t.Fatalf("kept %d of %d byte(s), valid through %d, durable %d",
				len(p), len(data), streamPrefix(p, m.header), m.Durable())
		}
		if a := m.Acked(); a != 0 && streamPrefix(p[:a], m.header) != int(a) {
			t.Fatalf("ack offset %d is not a frame boundary", a)
		}
		rl, rec, err := Open("d", Options{FS: fsys.CrashImage(0), CompactEvery: -1})
		if err != nil {
			t.Fatalf("recovery of the reopened mirror: %v", err)
		}
		if v := m.View(); rec.Seq != v.Seq || GraphHash(rl.Graph()) != GraphHash(v.G) {
			t.Fatalf("view at seq %d, recovery at seq %d", v.Seq, rec.Seq)
		}
		rl.Close()
		m.Close()
		m2, err := OpenMirror("d", Options{FS: fsys})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if m2.Durable() != m.Durable() {
			t.Fatalf("second open kept %d byte(s), first %d", m2.Durable(), m.Durable())
		}
	})
}

// labelTape decodes a fuzz input into label epochs: reads past the end
// return 0, so every byte string is a valid tape.
type labelTape struct{ data []byte }

func (t *labelTape) byte() int {
	if len(t.data) == 0 {
		return 0
	}
	b := t.data[0]
	t.data = t.data[1:]
	return int(b)
}

func (t *labelTape) int(n int) int { return (t.byte() | t.byte()<<8) % n }

// labelStep is one decoded epoch: the full label set and the candidate
// nodes the changed-set journal is given for it.
type labelStep struct {
	ls    *LabelSet
	nodes []int
}

// decodeLabelTape turns a tape into at most 24 label epochs over at most
// 300 nodes. Each step either changes the shape — node count, destination,
// or backbone presence — or moves a few nodes' labels, and names a
// candidate superset of the nodes it moved. Distances are hop counts or
// +Inf, never NaN, as every labeling engine produces.
func decodeLabelTape(data []byte) []labelStep {
	tape := &labelTape{data: data}
	var steps []labelStep
	cur := randLabels(1, 1+tape.int(300), tape.byte()&1 == 1)
	for len(steps) < 24 && (len(steps) == 0 || len(tape.data) > 0) {
		cur = cur.Clone()
		n := cur.N()
		var moved []int
		switch op := tape.byte(); op % 8 {
		case 0: // a new node count (maybe the same one): every label is rewritten
			cur = randLabels(int64(tape.byte()), 1+tape.int(300), cur.HasCDS)
			n = cur.N()
			for v := 0; v < n; v++ {
				moved = append(moved, v)
			}
		case 1: // the backbone appears or retires
			if cur.HasCDS = !cur.HasCDS; cur.HasCDS {
				cur.CDS = make([]bool, n)
				cur.CDS[tape.int(n)] = true
			} else {
				cur.CDS = nil
			}
		case 2: // a new destination
			cur.Dest = tape.int(n)
		default:
			for k := tape.byte() % 16; k > 0; k-- {
				v := tape.int(n)
				switch b := tape.byte(); b % 4 {
				case 0:
					cur.Dist[v] = math.Inf(1)
					cur.Next[v] = -1
				case 1:
					cur.Dist[v] = float64(b % 7)
					cur.Next[v] = int32(tape.int(n))
				case 2:
					cur.MIS[v] = !cur.MIS[v]
				case 3:
					if cur.HasCDS {
						cur.CDS[v] = !cur.CDS[v]
					}
				}
				moved = append(moved, v)
			}
		}
		for k := tape.byte() % 8; k > 0; k-- { // candidates that did not move
			moved = append(moved, tape.int(n))
		}
		slices.Sort(moved)
		steps = append(steps, labelStep{ls: cur, nodes: slices.Compact(moved)})
	}
	return steps
}

// rowLabels is a LabelReader that is not a *LabelSet: one row per node
// instead of one array per label, as an epoch layout other than the log's
// own would hold them.
type rowLabels struct {
	dest   int
	hasCDS bool
	rows   []labelRow
}

type labelRow struct {
	dist     float64
	next     int32
	mis, cds bool
}

func toRows(ls *LabelSet) *rowLabels {
	r := &rowLabels{dest: ls.Dest, hasCDS: ls.HasCDS, rows: make([]labelRow, ls.N())}
	for v := range r.rows {
		r.rows[v] = labelRow{dist: ls.Dist[v], next: ls.Next[v], mis: ls.MIS[v], cds: ls.HasCDS && ls.CDS[v]}
	}
	return r
}

func (r *rowLabels) N() int                       { return len(r.rows) }
func (r *rowLabels) Destination() int             { return r.dest }
func (r *rowLabels) HasBackbone() bool            { return r.hasCDS }
func (r *rowLabels) Route(v int) (float64, int32) { return r.rows[v].dist, r.rows[v].next }
func (r *rowLabels) InMIS(v int) bool             { return r.rows[v].mis }
func (r *rowLabels) InCDS(v int) bool             { return r.rows[v].cds }

// FuzzLabelJournal pins the changed-set journal to the full one: every
// sequence of label epochs, each journaled through AppendLabelChanges of a
// rowLabels copy with a candidate superset of its changes, writes
// byte-identical log and snapshot files to AppendLabels of every full set
// on a second store — across changes of node count, destination and
// backbone, and across compactions, whose snapshots encode the retained
// epoch through its reader. Both stores then recover byte-identical labels,
// and a changed-set write after Open leaves the recovery report's labels
// alone.
func FuzzLabelJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 0, 1, 3, 5, 7, 1, 9, 2, 0, 0, 11, 3, 4, 1, 0, 2})
	f.Add([]byte{200, 0, 0, 0, 17, 1, 5, 3, 4, 1, 3, 7, 0, 33, 2, 1, 9, 0, 9, 1, 4})
	f.Add([]byte{44, 1, 1, 2, 9, 0, 1, 3, 0, 5, 3, 1, 0, 0, 3, 8, 2, 0, 1, 3, 0, 1})
	const compactEvery = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeLabelTape(data)
		n := steps[len(steps)-1].ls.N()
		stores := [2]*Log{}
		fss := [2]*MemFS{NewMemFS(), NewMemFS()}
		for i := range stores {
			l, err := Create("d", ringGraph(n), Options{FS: fss[i], CompactEvery: compactEvery})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = l
		}
		changed, full := stores[0], stores[1]
		sameFile := func(step int, name string) {
			a, _ := fss[0].ReadFile(path.Join("d", name))
			b, _ := fss[1].ReadFile(path.Join("d", name))
			if !bytes.Equal(a, b) {
				t.Fatalf("step %d: %s differs between the stores (%d vs %d B)", step, name, len(a), len(b))
			}
		}
		for i, st := range steps {
			batch := []Record{{Type: TAddEdge, U: int32(i % n), V: int32((i * 7) % n), Weight: 1}}
			for _, l := range stores {
				if _, err := l.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			rows := toRows(st.ls)
			got, err := changed.AppendLabelChanges(rows, st.nodes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.AppendLabels(st.ls)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || changed.snapName != full.snapName || changed.logName != full.logName {
				t.Fatalf("step %d: changed-set journal wrote %d record(s) to %s, full journal %d to %s",
					i, got, changed.logName, want, full.logName)
			}
			sameFile(i, changed.snapName)
			sameFile(i, changed.logName)
			if changed.Labels() != LabelReader(rows) || full.Labels() != LabelReader(st.ls) ||
				changed.Metrics().LabelSeq != full.Metrics().LabelSeq {
				t.Fatalf("step %d: a journal did not retain the epoch it wrote", i)
			}
		}
		var recs [2]Recovery
		for i, l := range stores {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := Open("d", Options{FS: fss[i], CompactEvery: compactEvery})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			stores[i], recs[i] = l2, rec
		}
		last := steps[len(steps)-1].ls
		if !labelsEqual(recs[0].Labels, last) {
			t.Fatal("a recovered store lost the last journaled epoch")
		}
		a := appendLabelSection(nil, recs[0].Labels, recs[0].Labels.Seq)
		b := appendLabelSection(nil, recs[1].Labels, recs[1].Labels.Seq)
		if !bytes.Equal(a, b) {
			t.Fatal("the two stores recovered different labels")
		}
		sameFile(len(steps), stores[0].snapName)
		// The recovered set becomes the log's baseline; the next write must
		// leave the recovery report's copy as it was.
		recovered := recs[0].Labels.Clone()
		next := last.Clone()
		next.MIS[0] = !next.MIS[0]
		if _, err := stores[0].AppendLabelChanges(next, []int{0}); err != nil {
			t.Fatal(err)
		}
		if !labelsEqual(recs[0].Labels, recovered) || stores[0].Labels() != LabelReader(next) {
			t.Fatal("the first write after Open changed the recovery report's labels")
		}
	})
}
