package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"structura/internal/server"
	"structura/internal/wal"
)

// sweepPrimaryOpts shapes the stream for crash sweeps: tiny chunks so the
// history spans many messages (and frames split mid-chunk), no heartbeats so
// the message count is deterministic.
func sweepPrimaryOpts() PrimaryOptions {
	return PrimaryOptions{Chunk: 64, Poll: time.Millisecond, Heartbeat: time.Hour, IOTimeout: 2 * time.Second}
}

// TestGenSwapResync covers compaction racing the stream: the primary swaps
// log generations under the replica (CompactEvery 2), the sender detects
// wal.ErrGenGone / generation drift and full-resyncs, and the replica
// converges anyway.
func TestGenSwapResync(t *testing.T) {
	p := newPrimaryStackWith(t, 19, 40, 2, fastPrimaryOpts())
	defer p.close()

	fsR := wal.NewMemFS()
	r, err := New("mir", p.rep.Addr(), fastReplicaOpts(fsR))
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	defer r.Stop()

	for i := 0; i < 6; i++ {
		p.mutate(t, fmt.Sprintf(`{"ops":[{"op":"add","u":%d,"v":%d}]}`, i, 20+i))
		waitCaughtUp(t, r, p.log.Seq())
	}
	// Catching up on the batch seq is not enough: a compaction can swap the
	// primary's generation after the replica reached the seq, and the
	// replica follows with a resync.
	waitSameGen(t, r, p)
	if gen := p.log.Metrics().Gen; gen < 3 {
		t.Fatalf("compaction never swapped generations (gen %d)", gen)
	}
	st := r.SnapshotStats()
	if st.Resyncs < 2 {
		t.Fatalf("replica survived %d generation swap(s) with %d resync(s); want ≥2", p.log.Metrics().Gen-1, st.Resyncs)
	}
	if st.Gen != p.log.Metrics().Gen {
		t.Fatalf("replica on gen %d, primary on %d", st.Gen, p.log.Metrics().Gen)
	}
	var sum labelsSummary
	getJSON(t, r.Handler(), "/labels?hash=1", &sum)
	if want := fmt.Sprintf("%016x", wal.GraphHash(p.log.Graph())); sum.GraphHash != want {
		t.Fatalf("post-resync hash %s, primary %s", sum.GraphHash, want)
	}
}

// waitSameGen waits until the replica has applied the primary's last batch
// on the primary's live generation.
func waitSameGen(t *testing.T, r *Replica, p *primaryStack) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		seq, _ := r.Applied()
		gen := p.log.Metrics().Gen
		if st := r.SnapshotStats(); st.Gen == gen && seq >= p.log.Seq() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica on gen %d at seq %d, primary on gen %d at seq %d",
				r.SnapshotStats().Gen, seq, gen, p.log.Seq())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var errInjectedCrash = errors.New("injected crash")

// countStreamMessages runs a throwaway replica to completion and returns how
// many stream messages a full cold sync takes.
func countStreamMessages(t *testing.T, p *primaryStack) int {
	t.Helper()
	var n atomic.Int32
	r, err := New("probe", p.rep.Addr(), fastReplicaOpts(wal.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	r.testHookMsg = func(msg) error { n.Add(1); return nil }
	go r.Run()
	waitCaughtUp(t, r, p.log.Seq())
	r.Stop()
	return int(n.Load())
}

// seqWithinPrefix returns the last batch seq whose commit frame lies wholly
// inside the first `prefix` bytes of the primary's live-generation stream —
// the floor any recovery from an acked-prefix mirror must reach.
func seqWithinPrefix(t *testing.T, p *primaryStack, prefix int64) uint64 {
	t.Helper()
	gen, durable, _ := p.log.ReplState()
	_, snap, err := p.log.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := p.log.LogChunk(gen, 0, int(durable))
	if err != nil {
		t.Fatal(err)
	}
	if prefix > int64(len(stream)) {
		prefix = int64(len(stream))
	}
	m, err := wal.OpenMirror("floor", wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallSnapshot(gen, p.log.FenceToken(), snap); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(0, stream[:prefix]); err != nil {
		t.Fatalf("acked prefix did not replay: %v", err)
	}
	return m.View().Seq
}

// crashReplicaAt runs a fresh replica against p and injects a crash just
// before it processes stream message k: the replica's durable state at that
// instant is captured as a crash image (unsynced bytes dropped) along with
// the last offset it acked. BackoffBase is an hour so the session never
// reconnects behind the sweep's back.
func crashReplicaAt(t *testing.T, p *primaryStack, k int) (img *wal.MemFS, acked int64, r *Replica) {
	t.Helper()
	fs := wal.NewMemFS()
	opts := fastReplicaOpts(fs)
	opts.BackoffBase, opts.BackoffMax = time.Hour, time.Hour
	r, err := New("mir", p.rep.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	type cut struct {
		img   *wal.MemFS
		acked int64
	}
	cutCh := make(chan cut, 1)
	seen := 0 // session loop is single-goroutine; no atomics needed
	r.testHookMsg = func(msg) error {
		seen++
		if seen == k {
			cutCh <- cut{fs.CrashImage(uint64(k)), r.ackedOff.Load()}
			return errInjectedCrash
		}
		return nil
	}
	go r.Run()
	select {
	case c := <-cutCh:
		return c.img, c.acked, r
	case <-time.After(10 * time.Second):
		t.Fatalf("crash point %d never reached", k)
		return nil, 0, nil
	}
}

// TestCrashSweepReplica crashes the replica process at every message of a
// cold sync and recovers it from its durable image each time, asserting the
// replication invariant acked ≤ recovered ≤ committed: the recovered mirror
// never holds less than it acked (fsync-before-ack) and never more than the
// primary committed, and resuming from the crash image converges to the
// primary's exact state.
func TestCrashSweepReplica(t *testing.T) {
	p := newPrimaryStackWith(t, 23, 32, -1, sweepPrimaryOpts())
	defer p.close()
	p.mutate(t, `{"ops":[{"op":"add","u":1,"v":9},{"op":"add","u":2,"v":17}]}`)
	p.mutate(t, `{"ops":[{"op":"remove","u":1,"v":9},{"op":"add","u":3,"v":21}]}`)
	p.mutate(t, `{"ops":[{"op":"add","u":5,"v":29}]}`)

	total := countStreamMessages(t, p)
	if total < 10 {
		t.Fatalf("stream too short for a meaningful sweep: %d message(s)", total)
	}
	wantHash := fmt.Sprintf("%016x", wal.GraphHash(p.log.Graph()))
	_, committed, _ := p.log.ReplState()

	for k := 1; k <= total; k++ {
		img, acked, dead := crashReplicaAt(t, p, k)
		dead.Stop()

		r2, err := New("mir", p.rep.Addr(), fastReplicaOpts(img))
		if err != nil {
			t.Fatalf("k=%d: reopen after crash: %v", k, err)
		}
		_, recovered := r2.Applied()
		if recovered < acked {
			t.Fatalf("k=%d: recovered %d byte(s) < acked %d — ack claimed bytes the crash lost", k, recovered, acked)
		}
		if recovered > committed {
			t.Fatalf("k=%d: recovered %d byte(s) > committed %d", k, recovered, committed)
		}
		go r2.Run()
		waitCaughtUp(t, r2, p.log.Seq())
		var sum labelsSummary
		getJSON(t, r2.Handler(), "/labels?hash=1", &sum)
		if sum.GraphHash != wantHash {
			t.Fatalf("k=%d: resumed replica hash %s, primary %s", k, sum.GraphHash, wantHash)
		}
		r2.Stop()
	}
}

// TestCrashSweepReopenedReplica covers a replica that has restarted once: a
// cold sync, a clean stop, a reopen over the same directory, then more
// streamed batches. The reopen rewrites the mirrored log, so every byte the
// reopened replica acks must live in a file the directory durably names —
// for each crash image, acked ≤ recovered ≤ committed, and resuming from
// the image converges to the primary.
func TestCrashSweepReopenedReplica(t *testing.T) {
	p := newPrimaryStackWith(t, 31, 32, -1, sweepPrimaryOpts())
	defer p.close()
	p.mutate(t, `{"ops":[{"op":"add","u":1,"v":9},{"op":"add","u":2,"v":17}]}`)

	fs := wal.NewMemFS()
	r1, err := New("mir", p.rep.Addr(), fastReplicaOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	go r1.Run()
	waitCaughtUp(t, r1, p.log.Seq())
	r1.Stop()

	r2, err := New("mir", p.rep.Addr(), fastReplicaOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	go r2.Run()
	for _, ops := range []string{
		`{"ops":[{"op":"remove","u":1,"v":9},{"op":"add","u":3,"v":21}]}`,
		`{"ops":[{"op":"add","u":5,"v":29}]}`,
		`{"ops":[{"op":"add","u":6,"v":25},{"op":"remove","u":2,"v":17}]}`,
		`{"ops":[{"op":"add","u":7,"v":19}]}`,
	} {
		p.mutate(t, ops)
	}
	_, committed, _ := p.log.ReplState()
	deadline := time.Now().Add(10 * time.Second)
	for r2.ackedOff.Load() != committed {
		if time.Now().After(deadline) {
			t.Fatalf("reopened replica acked %d of %d byte(s)", r2.ackedOff.Load(), committed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	acked := r2.ackedOff.Load()
	r2.Stop()
	wantHash := fmt.Sprintf("%016x", wal.GraphHash(p.log.Graph()))

	for seed := uint64(0); seed < 16; seed++ {
		r3, err := New("mir", p.rep.Addr(), fastReplicaOpts(fs.CrashImage(seed)))
		if err != nil {
			t.Fatalf("seed %d: reopen after crash: %v", seed, err)
		}
		_, recovered := r3.Applied()
		if recovered < acked || recovered > committed {
			t.Fatalf("seed %d: recovered %d byte(s), want acked %d ≤ recovered ≤ committed %d",
				seed, recovered, acked, committed)
		}
		go r3.Run()
		waitCaughtUp(t, r3, p.log.Seq())
		var sum labelsSummary
		getJSON(t, r3.Handler(), "/labels?hash=1", &sum)
		if sum.GraphHash != wantHash {
			t.Fatalf("seed %d: resumed replica hash %s, primary %s", seed, sum.GraphHash, wantHash)
		}
		r3.Stop()
	}
}

// TestCrashSweepFailover kills the primary connection at every message of a
// cold sync and promotes the replica from whatever it holds, asserting
// acked ≤ recovered ≤ committed at the batch level — the promoted lineage
// contains every batch whose commit the replica acked, and nothing beyond
// what the primary committed — and that promotion leaves zero standing heal
// violations.
func TestCrashSweepFailover(t *testing.T) {
	p := newPrimaryStackWith(t, 29, 32, -1, sweepPrimaryOpts())
	defer p.close()
	p.mutate(t, `{"ops":[{"op":"add","u":1,"v":9},{"op":"add","u":2,"v":17}]}`)
	p.mutate(t, `{"ops":[{"op":"remove","u":1,"v":9},{"op":"add","u":3,"v":21}]}`)
	p.mutate(t, `{"ops":[{"op":"add","u":5,"v":29}]}`)

	total := countStreamMessages(t, p)
	committedSeq := p.log.Seq()
	_, committedBytes, _ := p.log.ReplState()

	for k := 1; k <= total; k++ {
		img, acked, r := crashReplicaAt(t, p, k)
		_ = img // the replica process survives; only the primary "died"

		gen, _, durable := func() (uint64, uint64, int64) {
			g, f, o := r.mirror.State()
			return g, f, o
		}()
		if durable < acked {
			t.Fatalf("k=%d: mirror holds %d byte(s) < acked %d", k, durable, acked)
		}

		srv, l, rec, err := r.Promote()
		if gen == 0 {
			// Crashed before any snapshot installed: there is nothing to
			// promote, and the failure must be explicit, not a bogus store.
			if err == nil {
				t.Fatalf("k=%d: promotion of an empty mirror succeeded", k)
			}
			r.Stop()
			continue
		}
		if err != nil {
			t.Fatalf("k=%d: promote: %v", k, err)
		}
		if floor := seqWithinPrefix(t, p, acked); rec.Seq < floor {
			t.Fatalf("k=%d: promoted at seq %d, but acked bytes cover seq %d", k, rec.Seq, floor)
		}
		if rec.Seq > committedSeq {
			t.Fatalf("k=%d: promoted at seq %d beyond primary committed %d", k, rec.Seq, committedSeq)
		}
		if durable > committedBytes {
			t.Fatalf("k=%d: mirror outran the primary: %d > %d", k, durable, committedBytes)
		}

		var snap server.MetricsSnapshot
		rw := getJSON(t, r.Handler(), "/metrics", &snap)
		if rw.Code != http.StatusOK {
			t.Fatalf("k=%d: promoted /metrics: %d", k, rw.Code)
		}
		if snap.WAL == nil || snap.WAL.RecoveryStanding != 0 {
			t.Fatalf("k=%d: promotion left standing violations: %+v", k, snap.WAL)
		}
		_ = srv.Shutdown(context.Background())
		l.Close()
	}
}
