package temporal

import (
	"errors"
	"os"
	"testing"

	"structura/internal/graph"
	"structura/internal/wal"
)

// windowStore builds a small WAL history whose validity intervals are easy
// to enumerate by hand (batch-sequence time):
//
//	(0,1) w=2   [0, 2)   seeded in the snapshot, removed at batch 2
//	(2,3) w=1   [1, 3)   added at batch 1, reweighted at batch 3 (removed
//	                     and re-added in one batch)
//	(2,3) w=5   [3, ∞)   the reweighted interval, open at end of log
//	(4,5) w=1   [4, ∞)   added at batch 4, open at end of log
func windowStore(t *testing.T, opts wal.Options) *wal.MemFS {
	t.Helper()
	fsys := wal.NewMemFS()
	opts.FS = fsys
	seed := graph.New(6)
	if err := seed.AddWeightedEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Create("d", seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]wal.Record{
		{{Type: wal.TAddEdge, U: 2, V: 3, Weight: 1}},
		{{Type: wal.TRemoveEdge, U: 0, V: 1}},
		{{Type: wal.TRemoveEdge, U: 2, V: 3}, {Type: wal.TAddEdge, U: 2, V: 3, Weight: 5}},
		{{Type: wal.TAddEdge, U: 4, V: 5, Weight: 1}},
	}
	for i, b := range batches {
		if _, err := l.Append(b); err != nil {
			t.Fatalf("append batch %d: %v", i+1, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return fsys
}

// weightAt returns the contact weight of (u,v) at time t, or 0 when no
// contact covers t.
func weightAt(t *testing.T, eg *EG, u, v, at int) float64 {
	t.Helper()
	w, err := eg.Weight(u, v, at)
	if err != nil {
		return 0
	}
	return w
}

func assertContacts(t *testing.T, eg *EG, u, v int, want []float64) {
	t.Helper()
	if len(want) != eg.Horizon() {
		t.Fatalf("want slice covers %d time units, horizon is %d", len(want), eg.Horizon())
	}
	for at, w := range want {
		if got := weightAt(t, eg, u, v, at); got != w {
			t.Errorf("(%d,%d) at t=%d: weight %v, want %v", u, v, at, got, w)
		}
	}
}

func TestLoadWindowValidityIntervals(t *testing.T) {
	fsys := windowStore(t, wal.Options{CompactEvery: -1})

	// The full history: every interval lands exactly where the log says.
	eg, err := LoadWindowFS(fsys, "d", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if eg.N() != 6 || eg.Horizon() != 6 {
		t.Fatalf("full window: n=%d horizon=%d, want 6 and 6", eg.N(), eg.Horizon())
	}
	assertContacts(t, eg, 0, 1, []float64{2, 2, 0, 0, 0, 0}) // snapshot edge, removed at 2
	assertContacts(t, eg, 2, 3, []float64{0, 1, 1, 5, 5, 5}) // reweight splits the interval at 3
	assertContacts(t, eg, 4, 5, []float64{0, 0, 0, 0, 1, 1}) // open edge covers the tail

	// A sub-window shifts batch time to window-relative time and clips the
	// intervals crossing its edges.
	sub, err := LoadWindowFS(fsys, "d", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Horizon() != 3 {
		t.Fatalf("sub window horizon %d, want 3", sub.Horizon())
	}
	assertContacts(t, sub, 0, 1, []float64{0, 0, 0}) // removed exactly at the window start
	assertContacts(t, sub, 2, 3, []float64{1, 5, 5})
	assertContacts(t, sub, 4, 5, []float64{0, 0, 1})

	// A window ending mid-history stops the range scan at its bound: the
	// reweight at batch 3 and the add at batch 4 never surface.
	head, err := LoadWindowFS(fsys, "d", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertContacts(t, head, 0, 1, []float64{2, 2})
	assertContacts(t, head, 2, 3, []float64{0, 1})
	assertContacts(t, head, 4, 5, []float64{0, 0})

	// Degenerate but legal: an empty window has nothing in it.
	empty, err := LoadWindowFS(fsys, "d", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if empty.ContactCount() != 0 {
		t.Fatalf("empty window has %d contacts", empty.ContactCount())
	}

	if _, err := LoadWindowFS(fsys, "d", 4, 1); err == nil {
		t.Fatal("inverted window loaded successfully")
	}
	if _, err := LoadWindowFS(fsys, "nowhere", 0, 4); !errors.Is(err, wal.ErrNoStore) {
		t.Fatalf("missing store: %v, want ErrNoStore", err)
	}
}

// TestLoadWindowCompactedStore pins the documented compaction semantics:
// snapshot edges are valid from the snapshot's batch seq, because the
// history before it is physically gone. Re-opening the store compacts it
// (restart-as-compaction), so the same window over the same directory now
// collapses each surviving edge's interval to [snapSeq, ...).
func TestLoadWindowCompactedStore(t *testing.T) {
	fsys := windowStore(t, wal.Options{CompactEvery: -1})

	l, rec, err := wal.Open("d", wal.Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 4 {
		t.Fatalf("recovered seq %d, want 4", rec.Seq)
	}
	// Open rewrote the store as a fresh generation: snapshot at batch 4,
	// empty log. Append one more batch so the window sees both layers.
	if _, err := l.Append([]wal.Record{{Type: wal.TAddEdge, U: 0, V: 2, Weight: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	eg, err := LoadWindowFS(fsys, "d", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// (2,3) lived on [1,3) at w=1 before compaction; that history is gone.
	// Both survivors now start at the snapshot seq, the new add at batch 5.
	assertContacts(t, eg, 0, 1, []float64{0, 0, 0, 0, 0, 0}) // removed pre-snapshot: absent
	assertContacts(t, eg, 2, 3, []float64{0, 0, 0, 0, 5, 5})
	assertContacts(t, eg, 4, 5, []float64{0, 0, 0, 0, 1, 1})
	assertContacts(t, eg, 0, 2, []float64{0, 0, 0, 0, 0, 7})

	// A window that predates the snapshot entirely is empty — the store
	// can no longer answer for compacted-away history.
	old, err := LoadWindowFS(fsys, "d", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if old.ContactCount() != 0 {
		t.Fatalf("pre-snapshot window has %d contacts", old.ContactCount())
	}
}

// TestLoadWindowInlineCompaction drives compaction through Append (the
// steady-state path, not restart) and checks windows keep working across
// the generation swap.
func TestLoadWindowInlineCompaction(t *testing.T) {
	fsys := wal.NewMemFS()
	l, err := wal.Create("d", graph.New(4), wal.Options{FS: fsys, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Batches 1..5: grow a path 0-1-2-3, then drop its middle edge. The
	// CompactEvery=2 policy snapshots after batches 2 and 4.
	batches := [][]wal.Record{
		{{Type: wal.TAddEdge, U: 0, V: 1, Weight: 1}},
		{{Type: wal.TAddEdge, U: 1, V: 2, Weight: 1}},
		{{Type: wal.TAddEdge, U: 2, V: 3, Weight: 1}},
		{{Type: wal.TRemoveEdge, U: 1, V: 2}},
		{{Type: wal.TRemoveEdge, U: 0, V: 1}, {Type: wal.TAddEdge, U: 0, V: 1, Weight: 9}},
	}
	for i, b := range batches {
		if _, err := l.Append(b); err != nil {
			t.Fatalf("append batch %d: %v", i+1, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The live snapshot is at batch 4, so intervals before it are gone and
	// the log suffix holds only batch 5.
	eg, err := LoadWindowFS(fsys, "d", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertContacts(t, eg, 0, 1, []float64{1, 9, 9}) // snapshot weight, then batch-5 reweight
	assertContacts(t, eg, 2, 3, []float64{1, 1, 1})
	assertContacts(t, eg, 1, 2, []float64{0, 0, 0}) // removed before the snapshot
}

// TestLoadWindowRealFS exercises the nil-FS path of LoadWindow against an
// on-disk store, as an external analysis process would use it.
func TestLoadWindowRealFS(t *testing.T) {
	dir := t.TempDir() + "/store"
	seed := graph.New(3)
	l, err := wal.Create(dir, seed, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]wal.Record{{Type: wal.TAddEdge, U: 0, V: 1, Weight: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]wal.Record{{Type: wal.TAddEdge, U: 1, V: 2, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	eg, err := LoadWindow(dir, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertContacts(t, eg, 0, 1, []float64{0, 4, 4})
	assertContacts(t, eg, 1, 2, []float64{0, 0, 2})

	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
