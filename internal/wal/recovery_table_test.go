package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"path"
	"slices"
	"strings"
	"testing"
)

// TestRecoveryTruncationTable pins what Open reports for every cause of a
// truncated log suffix. Each row rewrites the body of an 8-node ring store's
// single log generation (the header stays valid unless the row replaces it)
// and checks the recovered prefix, the truncation offset, the label
// accounting, the warm-start dirty set, and whether a label epoch survived.
// A row whose header Open must refuse checks instead that the error is
// ErrCorrupt and that every file of the store stays byte-identical.
func TestRecoveryTruncationTable(t *testing.T) {
	const n = 8
	frames := func(recs ...Record) []byte {
		var b []byte
		for _, r := range recs {
			b = appendFrame(b, r)
		}
		return b
	}
	add := func(u, v int32) Record { return Record{Type: TAddEdge, U: u, V: v, Weight: 1} }
	remove := func(u, v int32) Record { return Record{Type: TRemoveEdge, U: u, V: v} }
	commit := func(seq uint64, count uint32) Record {
		return Record{Type: TCommit, Seq: seq, Count: count}
	}
	// The label epoch journaled after batch 1: a full Reset delta per kind.
	ls := randLabels(3, n, false)
	var labels1 []byte
	deltas := diffAll(nil, ls)
	for _, d := range deltas {
		labels1 = appendFrame(labels1, Record{Type: TLabelDelta, Label: d})
	}
	batch1 := frames(add(0, 3), commit(1, 1))
	batch2 := frames(add(2, 6), remove(0, 1), commit(2, 2))
	firstOf2 := len(frames(add(2, 6)))
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	flip := func(b []byte, off int) []byte {
		b = slices.Clone(b)
		b[off] ^= 0x40
		return b
	}
	hdr := int64(logHeaderLen)
	at2 := hdr + int64(len(batch1)+len(labels1)) // start of batch 2
	// A whole, checksummed header of another version, and a damaged one.
	v2 := encodeLogHeader(1, 0, 0)
	binary.LittleEndian.PutUint16(v2[4:], 2)
	binary.LittleEndian.PutUint32(v2[logHeaderLen-4:], crc32.Checksum(v2[:logHeaderLen-4], castagnoli))
	damaged := flip(encodeLogHeader(1, 0, 0), 10)

	type want struct {
		seq                         uint64
		batches, replayed           int
		truncatedAt                 int64
		labelRecords, labelsIgnored int
		dirty                       []int
		labels                      bool
	}
	rows := []struct {
		name   string
		body   []byte
		header []byte // nil: the store's own header
		noLog  bool   // delete the log file instead of rewriting it
		refuse bool   // Open must fail with ErrCorrupt and change no file
		want   want
	}{
		{
			name: "clean tail",
			body: cat(batch1, labels1, batch2),
			want: want{seq: 2, batches: 2, replayed: 3, truncatedAt: -1,
				labelRecords: len(deltas), dirty: []int{0, 1, 2, 6}, labels: true},
		},
		{
			name: "torn frame mid-batch",
			body: cat(batch1, labels1, batch2[:firstOf2+3]),
			want: want{seq: 1, batches: 1, replayed: 1, truncatedAt: at2,
				labelRecords: len(deltas), labels: true},
		},
		{
			name: "crc flip",
			body: cat(batch1, labels1, flip(batch2, frameHeader+2)),
			want: want{seq: 1, batches: 1, replayed: 1, truncatedAt: at2,
				labelRecords: len(deltas), labels: true},
		},
		{
			name: "commit marker with the wrong seq",
			body: cat(batch1, labels1, frames(add(2, 6), commit(5, 1))),
			want: want{seq: 1, batches: 1, replayed: 1, truncatedAt: at2,
				labelRecords: len(deltas), labels: true},
		},
		{
			name: "commit marker with the wrong count",
			body: cat(batch1, labels1, frames(add(2, 6), commit(2, 2))),
			want: want{seq: 1, batches: 1, replayed: 1, truncatedAt: at2,
				labelRecords: len(deltas), labels: true},
		},
		{
			name: "label record inside a batch",
			body: cat(batch1, frames(add(2, 6)), labels1, frames(commit(2, 1))),
			want: want{seq: 1, batches: 1, replayed: 1, truncatedAt: hdr + int64(len(batch1))},
		},
		{
			name: "uncommitted tail",
			body: cat(batch1, labels1, frames(add(2, 6), remove(0, 1))),
			want: want{seq: 1, batches: 1, replayed: 1, truncatedAt: at2,
				labelRecords: len(deltas), labels: true},
		},
		{
			name:   "header generation mismatch",
			body:   cat(batch1, labels1, batch2),
			header: encodeLogHeader(7, 0, 0),
			want:   want{truncatedAt: 0},
		},
		{
			name:   "log header of version 2",
			body:   cat(batch1, labels1, batch2),
			header: v2,
			refuse: true,
		},
		{
			name:   "damaged header",
			body:   cat(batch1, labels1, batch2),
			header: damaged,
			want:   want{truncatedAt: 0},
		},
		{
			name:  "missing log file",
			noLog: true,
			want:  want{truncatedAt: 0},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fsys := NewMemFS()
			l, err := Create("d", ringGraph(n), Options{FS: fsys, CompactEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			logName := path.Join("d", l.logName)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if row.noLog {
				if err := fsys.Remove(logName); err != nil {
					t.Fatal(err)
				}
			} else {
				data, err := fsys.ReadFile(logName)
				if err != nil {
					t.Fatal(err)
				}
				h := row.header
				if h == nil {
					h = data[:logHeaderLen]
				}
				f, err := fsys.Create(logName)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(cat(h, row.body)); err != nil {
					t.Fatal(err)
				}
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			if err := fsys.SyncDir("d"); err != nil {
				t.Fatal(err)
			}

			img := fsys.CrashImage(0)
			before := storeFiles(t, img)
			l2, rec, err := Open("d", Options{FS: img, CompactEvery: -1})
			if row.refuse {
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version 2") {
					t.Fatalf("open = %v, want ErrCorrupt naming version 2", err)
				}
				if after := storeFiles(t, img); !maps.EqualFunc(before, after, bytes.Equal) {
					t.Fatal("a refused open changed the store's files")
				}
				return
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l2.Close()
			dirty := slices.Clone(rec.Dirty)
			slices.Sort(dirty)
			got := want{
				seq: rec.Seq, batches: rec.Batches, replayed: rec.Replayed,
				truncatedAt: rec.TruncatedAt, labelRecords: rec.LabelRecords,
				labelsIgnored: rec.LabelsIgnored, dirty: dirty, labels: rec.Labels != nil,
			}
			w := row.want
			if got.seq != w.seq || got.batches != w.batches || got.replayed != w.replayed ||
				got.truncatedAt != w.truncatedAt || got.labelRecords != w.labelRecords ||
				got.labelsIgnored != w.labelsIgnored || !slices.Equal(got.dirty, w.dirty) ||
				got.labels != w.labels {
				t.Fatalf("recovery = %+v (reason %q)\nwant       %+v", got, rec.Reason, w)
			}
			if (w.truncatedAt >= 0) != (rec.Reason != "") {
				t.Fatalf("truncated at %d but reason %q", rec.TruncatedAt, rec.Reason)
			}
			if rec.Nodes != n || l2.Graph().N() != n {
				t.Fatalf("recovered %d node(s), want %d", rec.Nodes, n)
			}
		})
	}
}

// storeFiles reads every file of the store in d.
func storeFiles(t *testing.T, fsys FS) map[string][]byte {
	t.Helper()
	names, err := fsys.List("d")
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		if files[name], err = fsys.ReadFile(path.Join("d", name)); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
