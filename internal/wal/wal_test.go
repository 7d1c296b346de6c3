package wal

import (
	"errors"
	"path"
	"strings"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/stats"
)

// ringGraph builds a small deterministic seed topology.
func ringGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		_ = g.AddEdge(i, (i+1)%n)
	}
	return g
}

// seededBatches generates b mutation batches over n nodes, mixing unit and
// weighted adds with removes, deterministically.
func seededBatches(seed int64, n, b, perBatch int) [][]Record {
	r := stats.NewRand(seed)
	out := make([][]Record, b)
	for i := range out {
		batch := make([]Record, perBatch)
		for j := range batch {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4:
				batch[j] = Record{Type: TAddEdge, U: u, V: v, Weight: 1}
			case 5, 6, 7:
				batch[j] = Record{Type: TRemoveEdge, U: u, V: v}
			case 8:
				batch[j] = Record{Type: TAddEdge, U: u, V: v, Weight: float64(r.Intn(5)) + 0.5}
			default:
				batch[j] = Record{Type: TRemoveEdge, U: v, V: u}
			}
		}
		out[i] = batch
	}
	return out
}

func TestCreateAppendReopenRoundTrip(t *testing.T) {
	for _, compactEvery := range []int{-1, 3} {
		fsys := NewMemFS()
		opts := Options{FS: fsys, CompactEvery: compactEvery}
		l, err := Create("d", ringGraph(12), opts)
		if err != nil {
			t.Fatal(err)
		}
		batches := seededBatches(1, 12, 10, 5)
		for i, b := range batches {
			seq, err := l.Append(b)
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(i+1) {
				t.Fatalf("batch %d got seq %d", i, seq)
			}
		}
		wantHash := GraphHash(l.Graph())
		wantSeq := l.Seq()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, rec, err := Open("d", opts)
		if err != nil {
			t.Fatalf("compactEvery=%d: %v", compactEvery, err)
		}
		if rec.Truncated() {
			t.Fatalf("clean shutdown recovered with truncation: %+v", rec)
		}
		if rec.Seq != wantSeq {
			t.Fatalf("recovered seq %d, want %d", rec.Seq, wantSeq)
		}
		if rec.Records != uint64(10*5) {
			t.Fatalf("recovered %d cumulative records, want 50", rec.Records)
		}
		if got := GraphHash(l2.Graph()); got != wantHash {
			t.Fatalf("recovered graph hash %x, want %x", got, wantHash)
		}
		// The recovered log accepts further appends.
		if _, err := l2.Append([]Record{{Type: TAddEdge, U: 0, V: 6, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
		if l2.Seq() != wantSeq+1 {
			t.Fatalf("post-recovery append got seq %d", l2.Seq())
		}
		l2.Close()
	}
}

func TestOpenOrCreate(t *testing.T) {
	fsys := NewMemFS()
	opts := Options{FS: fsys}
	l, _, created, err := OpenOrCreate("d", ringGraph(4), opts)
	if err != nil || !created {
		t.Fatalf("first OpenOrCreate: created=%v err=%v", created, err)
	}
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, rec, created, err := OpenOrCreate("d", ringGraph(4), opts)
	if err != nil || created {
		t.Fatalf("second OpenOrCreate: created=%v err=%v", created, err)
	}
	if rec.Seq != 1 || !l2.Graph().HasEdge(0, 2) {
		t.Fatalf("recovery lost the appended edge: %+v", rec)
	}
	l2.Close()

	if _, err := Create("d", ringGraph(4), opts); err == nil {
		t.Fatal("Create over an existing store must fail")
	}
	if _, _, err := Open("nosuch", opts); !errors.Is(err, ErrNoStore) {
		t.Fatalf("Open of empty dir: got %v, want ErrNoStore", err)
	}
}

func TestAppendStampsValidity(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", graph.New(4), Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Record{{Type: TRemoveEdge, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var adds, removes []Record
	if _, err := Replay(fsys, "d", func(r Record) error {
		switch r.Type {
		case TAddEdge:
			adds = append(adds, r)
		case TRemoveEdge:
			removes = append(removes, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(adds) != 1 || adds[0].Seq != 1 {
		t.Fatalf("add record not stamped with batch seq: %+v", adds)
	}
	if len(removes) != 1 || removes[0].Seq != 2 {
		t.Fatalf("remove record not stamped with batch seq: %+v", removes)
	}
}

// TestAppendRejectsNonEdgeRecords: Append journals edge records only. A
// batch holding any other type — a commit marker, a label delta, a retired
// or unknown type byte — fails whole, before anything is written.
func TestAppendRejectsNonEdgeRecords(t *testing.T) {
	l, err := Create("d", graph.New(4), Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := len(l.live)
	for _, typ := range []Type{0, 1, 2, 5, TCommit, TLabelDelta, 99} {
		batch := []Record{{Type: TAddEdge, U: 0, V: 1, Weight: 1}, {Type: typ, U: 1, V: 2}}
		if _, err := l.Append(batch); err == nil {
			t.Fatalf("Append accepted a record of type %d", typ)
		}
	}
	if l.Seq() != 0 || len(l.live) != before || l.Graph().M() != 0 {
		t.Fatalf("rejected batches left seq %d, %d log byte(s) past the header, %d edge(s)",
			l.Seq(), len(l.live)-before, l.Graph().M())
	}
}

func TestCompactionKeepsOneGeneration(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(10), Options{FS: fsys, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range seededBatches(7, 10, 9, 4) {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Metrics().Compactions; got != 4 {
		t.Fatalf("9 batches at CompactEvery=2: %d compactions, want 4", got)
	}
	names, _ := fsys.List("d")
	var snaps, logs int
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "snap-"):
			snaps++
		case strings.HasPrefix(n, "wal-"):
			logs++
		case n != superName:
			t.Fatalf("unexpected file %q", n)
		}
	}
	if snaps != 1 || logs != 1 {
		t.Fatalf("dir holds %d snapshot(s), %d log(s); want 1 and 1: %v", snaps, logs, names)
	}
	if l.Metrics().Depth != 4 {
		t.Fatalf("depth %d after compaction at batch 8 of 9, want one 4-record batch", l.Metrics().Depth)
	}
	l.Close()
}

func TestSyncPolicies(t *testing.T) {
	batch := []Record{{Type: TAddEdge, U: 0, V: 2, Weight: 1}}
	perBatch := func(p SyncPolicy, every int) uint64 {
		fsys := NewMemFS()
		l, err := Create("d", ringGraph(6), Options{FS: fsys, Sync: p, SyncEvery: every, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		before := l.Metrics().Syncs
		for i := 0; i < 6; i++ {
			rec := batch
			rec[0].V = int32(2 + i%3)
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		return l.Metrics().Syncs - before
	}
	if got := perBatch(SyncEachBatch, 0); got != 6 {
		t.Fatalf("SyncEachBatch: %d syncs for 6 batches", got)
	}
	if got := perBatch(SyncInterval, 3); got != 2 {
		t.Fatalf("SyncInterval(3): %d syncs for 6 batches, want 2", got)
	}
	if got := perBatch(SyncNone, 0); got != 0 {
		t.Fatalf("SyncNone: %d syncs, want 0", got)
	}
}

func TestShortWriteBreaksLogAndRecoveryTruncates(t *testing.T) {
	mem := NewMemFS()
	fsys := NewFaultFS(mem, 11, -1)
	l, err := Create("d", ringGraph(8), Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	fsys.ShortWriteAt(fsys.Ops()) // the next write is cut short
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 3, Weight: 1}}); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("short write surfaced as %v", err)
	}
	if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: 4, Weight: 1}}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after failure: got %v, want ErrBroken", err)
	}
	// Recovery from the same filesystem truncates the torn batch.
	l2, rec, err := Open("d", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated() {
		t.Fatalf("expected truncation, got %+v", rec)
	}
	if rec.Seq != 1 || !l2.Graph().HasEdge(0, 2) || l2.Graph().HasEdge(0, 3) {
		t.Fatalf("recovered wrong prefix: %+v", rec)
	}
	l2.Close()
}

// TestShortWriteDuringMirrorInstallStopsAppends: a resync whose install
// fails part-way leaves the mirror refusing appends — it never keeps
// writing to the previous generation's log, which the directory may no
// longer name — until a later install succeeds.
func TestShortWriteDuringMirrorInstallStopsAppends(t *testing.T) {
	src := NewMemFS()
	l, err := Create("d", ringGraph(8), Options{FS: src, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	gen, snap, err := l.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	stream := append([]byte(nil), l.live...)
	l.Close()

	fsys := NewFaultFS(NewMemFS(), 3, -1)
	m, err := OpenMirror("m", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallSnapshot(gen, 1, snap); err != nil {
		t.Fatal(err)
	}
	fsys.ShortWriteAt(fsys.Ops() + 1) // the snapshot write, after its temp file's create
	if err := m.InstallSnapshot(gen, 1, snap); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("short write surfaced as %v", err)
	}
	if err := m.Append(0, stream); err == nil {
		t.Fatal("append after a failed install succeeded")
	}
	if err := m.InstallSnapshot(gen, 1, snap); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(0, stream); err != nil || m.Acked() != int64(len(stream)) {
		t.Fatalf("append after a clean install: acked %d of %d (err %v)", m.Acked(), len(stream), err)
	}
}

func TestPostFsyncBitFlipTruncatesAtCorruptRecord(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(8), Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]Record{{Type: TAddEdge, U: 0, V: int32(2 + i), Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	logName := l.logName
	// Flip a durable bit in the third batch's region of the log.
	synced := fsys.SyncedLen(path.Join("d", logName))
	batchBytes := (synced - logHeaderLen) / 4
	off := logHeaderLen + 2*batchBytes + batchBytes/2
	if !fsys.Corrupt(path.Join("d", logName), off, 0x40) {
		t.Fatalf("corrupt offset %d of %d out of range", off, synced)
	}
	l2, rec, err := Open("d", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated() || rec.Seq != 2 {
		t.Fatalf("bit flip in batch 3: recovered %+v, want truncation at seq 2", rec)
	}
	g := l2.Graph()
	if !g.HasEdge(0, 2) || !g.HasEdge(0, 3) || g.HasEdge(0, 4) || g.HasEdge(0, 5) {
		t.Fatal("recovered graph is not the 2-batch prefix")
	}
	l2.Close()
}

func TestCorruptSnapshotAndSuperblockAreNamedErrors(t *testing.T) {
	fsys := NewMemFS()
	l, err := Create("d", ringGraph(8), Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	snapPath := path.Join("d", l.snapName)

	flip := func(name string, off int) {
		if !fsys.Corrupt(name, off, 0x01) {
			t.Fatalf("corrupt %s@%d failed", name, off)
		}
	}
	flip(snapPath, 30)
	if _, _, err := Open("d", Options{FS: fsys}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorrupt", err)
	}
	flip(snapPath, 30) // restore
	flip(path.Join("d", superName), 8)
	if _, _, err := Open("d", Options{FS: fsys}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt superblock: got %v, want ErrCorrupt", err)
	}
}

func TestGraphAndCSRHashAgree(t *testing.T) {
	r := stats.NewRand(5)
	g := gen.SparseErdosRenyi(r, 200, 0.03)
	if GraphHash(g) != CSRHash(g.Freeze()) {
		t.Fatal("GraphHash and CSRHash disagree on the same topology")
	}
	h := GraphHash(g)
	_ = g.AddEdge(0, 199)
	if GraphHash(g) == h {
		t.Fatal("hash did not move after a mutation")
	}
	g.RemoveEdge(0, 199)
	if GraphHash(g) != h {
		t.Fatal("hash not restored after undo")
	}
}

func TestSnapshotRoundTripPreservesTopology(t *testing.T) {
	r := stats.NewRand(9)
	g := gen.SparseErdosRenyi(r, 300, 0.02)
	got, seq, cum, err := DecodeSnapshot(EncodeSnapshot(g, 42, 17))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || cum != 17 {
		t.Fatalf("provenance (%d,%d), want (42,17)", seq, cum)
	}
	if GraphHash(got) != GraphHash(g) {
		t.Fatal("snapshot round trip changed the topology")
	}
}

func TestSaveLoadGraphOSFilesystem(t *testing.T) {
	dir := t.TempDir()
	g := ringGraph(20)
	p := path.Join(dir, "g.snap")
	if err := SaveGraph(p, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if GraphHash(got) != GraphHash(g) {
		t.Fatal("SaveGraph/LoadGraph round trip changed the topology")
	}
}

func TestLogLifecycleOnOSFilesystem(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, ringGraph(16), Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range seededBatches(3, 16, 8, 4) {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	want := GraphHash(l.Graph())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Seq != 8 || GraphHash(l2.Graph()) != want {
		t.Fatalf("OS recovery: %+v", rec)
	}
}
