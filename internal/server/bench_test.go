package server

import (
	"context"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/stats"
	"structura/internal/wal"
)

// BenchmarkPublish prices the writer's batch path on sparse ER graphs (avg
// degree ~10) at 10k, 100k and 1M nodes, journaling to a WAL on wal.MemFS
// with the backbone off. One op is one 100-op batch — 50 removals of the
// previous batch's adds and 50 fresh adds — appended to the log, healed
// through every supervisor and published: label pages, journal deltas and
// topology pages. Publishing shares every page the batch left alone, so
// ns/op and B/op should grow with the batch, not with n. The n100k_256op
// leg runs 256-op batches, the size the writer drains under a sustained
// ingest.
func BenchmarkPublish(b *testing.B) {
	for _, leg := range []struct {
		name     string
		n, batch int
	}{
		{"n10k", 10_000, 100},
		{"n100k", 100_000, 100},
		{"n100k_256op", 100_000, 256},
		{"n1m", 1_000_000, 100},
	} {
		b.Run(leg.name, func(b *testing.B) { benchPublish(b, leg.n, leg.batch) })
	}
}

func benchPublish(b *testing.B, n, size int) {
	g := gen.SparseErdosRenyi(stats.NewRand(1), n, 10.0/float64(n-1))
	srv, l := reopenedServer(b, g)
	defer l.Close()
	defer srv.Shutdown(context.Background())

	// The writer goroutine idles on an empty queue, so the benchmark drives
	// applyBatch itself.
	r := stats.NewRand(7)
	var adds []Mutation
	batch := make([]Mutation, 0, size)
	next := func() []Mutation {
		batch = batch[:0]
		for _, m := range adds {
			batch = append(batch, Mutation{Op: "remove", U: m.U, V: m.V})
		}
		adds = adds[:0]
		for len(adds) < size/2 {
			if u, v := r.Intn(n), r.Intn(n); u != v {
				adds = append(adds, Mutation{Op: "add", U: u, V: v})
			}
		}
		return append(batch, adds...)
	}
	if err := srv.applyBatch(next()); err != nil { // the first batch has no removals
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.applyBatch(next()); err != nil {
			b.Fatal(err)
		}
	}
}

// reopenedServer serves g from a MemFS store that has been through one
// restart: the startup label epoch the first server journaled is folded
// into the reopened store's snapshot, so the live log starts short, as it
// does in a long-running deployment. (A MemFS file copies its contents when
// it grows, which would otherwise charge each batch for a log that holds a
// label set of every node.)
func reopenedServer(b *testing.B, g *graph.Graph) (*Server, *wal.Log) {
	fsys := wal.NewMemFS()
	opts := wal.Options{FS: fsys, CompactEvery: -1}
	l, err := wal.Create("store", g, opts)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(g, Config{SkipCDS: true, WAL: l})
	if err != nil {
		b.Fatal(err)
	}
	srv.Shutdown(context.Background())
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	l, rec, err := wal.Open("store", opts)
	if err != nil {
		b.Fatal(err)
	}
	srv, err = New(l.Graph(), Config{SkipCDS: true, WAL: l, Recovered: &rec})
	if err != nil {
		b.Fatal(err)
	}
	return srv, l
}
