package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"structura/internal/gen"
	"structura/internal/server"
	"structura/internal/stats"
	"structura/internal/wal"
)

// fastPrimaryOpts keeps test turnaround tight.
func fastPrimaryOpts() PrimaryOptions {
	return PrimaryOptions{Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond, IOTimeout: 2 * time.Second}
}

func fastReplicaOpts(fs wal.FS) Options {
	return Options{
		WAL:         wal.Options{FS: fs},
		SkipCDS:     true,
		DialTimeout: time.Second, IOTimeout: 2 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Seed: 42,
	}
}

// primaryStack is a full primary: WAL-journaled server plus replication
// listener, over MemFS.
type primaryStack struct {
	fs  *wal.MemFS
	log *wal.Log
	srv *server.Server
	rep *Primary
}

func newPrimaryStack(t *testing.T, seed int64, n int) *primaryStack {
	return newPrimaryStackWith(t, seed, n, -1, fastPrimaryOpts())
}

func newPrimaryStackWith(t *testing.T, seed int64, n, compactEvery int, popts PrimaryOptions) *primaryStack {
	t.Helper()
	fs := wal.NewMemFS()
	g := gen.SparseErdosRenyi(stats.NewRand(seed), n, 4.0/float64(n))
	for i := 0; i < n; i++ {
		if !g.HasEdge(i, (i+1)%n) {
			_ = g.AddEdge(i, (i+1)%n)
		}
	}
	l, err := wal.Create("prim", g, wal.Options{FS: fs, CompactEvery: compactEvery})
	if err != nil {
		t.Fatalf("wal create: %v", err)
	}
	srv, err := server.New(g, server.Config{Dest: 0, SkipCDS: true, WAL: l})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	rep, err := NewPrimary(l, "127.0.0.1:0", popts)
	if err != nil {
		t.Fatalf("primary listener: %v", err)
	}
	return &primaryStack{fs: fs, log: l, srv: srv, rep: rep}
}

func (p *primaryStack) close() {
	p.rep.Close()
	_ = p.srv.Shutdown(context.Background())
	p.log.Close()
}

func (p *primaryStack) mutate(t *testing.T, ops string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(ops))
	rw := httptest.NewRecorder()
	p.srv.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("mutate: status %d: %s", rw.Code, rw.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for !p.srv.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("primary never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitCaughtUp(t *testing.T, r *Replica, wantSeq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		seq, _ := r.Applied()
		if seq >= wantSeq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d (stats %+v)", seq, wantSeq, r.SnapshotStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(t *testing.T, h http.Handler, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
	if v != nil {
		if err := json.NewDecoder(rw.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v (body %q)", path, err, rw.Body.String())
		}
	}
	return rw
}

// TestReplicationCatchUp covers the happy path: a cold replica full-syncs
// (snapshot + tail), applies live batches as the primary commits them, and
// serves stale-ok reads that agree with the primary.
func TestReplicationCatchUp(t *testing.T) {
	p := newPrimaryStack(t, 11, 48)
	defer p.close()

	p.mutate(t, `{"ops":[{"op":"add","u":1,"v":9},{"op":"add","u":2,"v":17}]}`)

	fsR := wal.NewMemFS()
	r, err := New("mir", p.rep.Addr(), fastReplicaOpts(fsR))
	if err != nil {
		t.Fatalf("replica: %v", err)
	}
	go r.Run()
	waitCaughtUp(t, r, p.log.Seq())

	// More traffic while the stream is live.
	p.mutate(t, `{"ops":[{"op":"add","u":3,"v":30},{"op":"remove","u":1,"v":9}]}`)
	p.mutate(t, `{"ops":[{"op":"add","u":5,"v":40}]}`)
	waitCaughtUp(t, r, p.log.Seq())

	// The applied view is byte-equivalent to the primary's durable replica.
	var sum labelsSummary
	rw := getJSON(t, r.Handler(), "/labels?hash=1", &sum)
	if rw.Code != http.StatusOK {
		t.Fatalf("/labels: %d", rw.Code)
	}
	if want := fmt.Sprintf("%016x", wal.GraphHash(p.log.Graph())); sum.GraphHash != want {
		t.Fatalf("replica hash %s, primary %s", sum.GraphHash, want)
	}
	if got := rw.Result().Header.Get("Warning"); !strings.Contains(got, "110") {
		t.Fatalf("degraded read missing Warning header, got %q", got)
	}
	if rw.Result().Header.Get("X-Staleness-Ns") == "" {
		t.Fatal("degraded read missing X-Staleness-Ns")
	}

	// Route answers agree with the primary's.
	for _, from := range []int{5, 17, 40} {
		var pr, rr routeResponse
		prw := httptest.NewRecorder()
		p.srv.Handler().ServeHTTP(prw, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?from=%d", from), nil))
		if prw.Code != http.StatusOK {
			t.Fatalf("primary /route?from=%d: %d", from, prw.Code)
		}
		if err := json.NewDecoder(prw.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		rrw := getJSON(t, r.Handler(), fmt.Sprintf("/route?from=%d", from), &rr)
		if rrw.Code != http.StatusOK {
			t.Fatalf("replica /route?from=%d: %d (%s)", from, rrw.Code, rrw.Body.String())
		}
		if pr.Dist != rr.Dist {
			t.Fatalf("route dist from %d: primary %v, replica %v", from, pr.Dist, rr.Dist)
		}
	}

	// Replica metrics carry the replication cursor. The replica acks a
	// chunk only after it has mirrored it, so one read of the stats can
	// land between the two: wait for the ack to reach the mirrored offset.
	deadline := time.Now().Add(10 * time.Second)
	st := r.SnapshotStats()
	for st.AckedOff != st.MirroredOff && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		st = r.SnapshotStats()
	}
	if !st.Connected || st.Resyncs != 1 || st.MirroredOff == 0 || st.AckedOff != st.MirroredOff {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.StalenessNs < 0 {
		t.Fatal("staleness unset after commits")
	}
	r.Stop()
}

// TestReplicaResumesOffset covers the resumable cursor: a stopped replica
// reopened over the same directory resumes from its durable offset without
// a snapshot resync.
func TestReplicaResumesOffset(t *testing.T) {
	p := newPrimaryStack(t, 13, 40)
	defer p.close()
	p.mutate(t, `{"ops":[{"op":"add","u":1,"v":9}]}`)

	fsR := wal.NewMemFS()
	r1, err := New("mir", p.rep.Addr(), fastReplicaOpts(fsR))
	if err != nil {
		t.Fatal(err)
	}
	go r1.Run()
	waitCaughtUp(t, r1, p.log.Seq())
	if st := r1.SnapshotStats(); st.Resyncs != 1 {
		t.Fatalf("cold replica resyncs = %d, want 1", st.Resyncs)
	}
	r1.Stop()

	// Primary keeps committing while the replica is down.
	p.mutate(t, `{"ops":[{"op":"add","u":2,"v":17},{"op":"add","u":3,"v":21}]}`)

	r2, err := New("mir", p.rep.Addr(), fastReplicaOpts(fsR))
	if err != nil {
		t.Fatal(err)
	}
	go r2.Run()
	defer r2.Stop()
	waitCaughtUp(t, r2, p.log.Seq())
	st := r2.SnapshotStats()
	if st.Resyncs != 0 {
		t.Fatalf("warm replica resynced %d time(s); the offset cursor should have resumed", st.Resyncs)
	}
	var sum labelsSummary
	getJSON(t, r2.Handler(), "/labels?hash=1", &sum)
	if want := fmt.Sprintf("%016x", wal.GraphHash(p.log.Graph())); sum.GraphHash != want {
		t.Fatalf("resumed replica hash %s, primary %s", sum.GraphHash, want)
	}
}

// TestPromoteFencesOldPrimary covers failover end to end: the replica is
// promoted (fence bump), serves authoritatively with zero standing
// violations, and the deposed primary is fenced on first contact with any
// follower of the new lineage.
func TestPromoteFencesOldPrimary(t *testing.T) {
	p := newPrimaryStack(t, 17, 44)
	defer p.close()
	p.mutate(t, `{"ops":[{"op":"add","u":1,"v":9},{"op":"add","u":4,"v":31}]}`)

	fsR := wal.NewMemFS()
	r, err := New("mir", p.rep.Addr(), fastReplicaOpts(fsR))
	if err != nil {
		t.Fatal(err)
	}
	go r.Run()
	waitCaughtUp(t, r, p.log.Seq())

	oldFence := p.log.FenceToken()

	// Promote via the HTTP surface, as the operator would.
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/promote", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/promote: %d: %s", rw.Code, rw.Body.String())
	}
	var pro struct {
		Promoted bool   `json:"promoted"`
		Seq      uint64 `json:"seq"`
		Fence    uint64 `json:"fence"`
	}
	if err := json.NewDecoder(rw.Body).Decode(&pro); err != nil {
		t.Fatal(err)
	}
	if !pro.Promoted || pro.Fence != oldFence+1 {
		t.Fatalf("promotion fence %d, want %d", pro.Fence, oldFence+1)
	}
	if pro.Seq != p.log.Seq() {
		t.Fatalf("promoted at seq %d, primary committed %d", pro.Seq, p.log.Seq())
	}
	defer func() {
		srv := r.promotedSrv.Load()
		_ = srv.Shutdown(context.Background())
		r.PromotedLog().Close()
	}()

	// The promoted surface is the full server: zero standing violations
	// from the warm-start heal, and authoritative (non-stale) reads.
	var snap server.MetricsSnapshot
	getJSON(t, r.Handler(), "/metrics", &snap)
	if snap.WAL == nil || snap.WAL.RecoveryStanding != 0 {
		t.Fatalf("promotion left standing violations: %+v", snap.WAL)
	}
	if !snap.WAL.WarmStart {
		t.Fatal("promotion did not warm-start from the replicated label epoch")
	}
	rw = getJSON(t, r.Handler(), "/route?from=9", nil)
	if rw.Code != http.StatusOK {
		t.Fatalf("promoted /route: %d", rw.Code)
	}
	if rw.Result().Header.Get("Warning") != "" {
		t.Fatal("promoted read still carries the stale Warning header")
	}

	// New lineage's replication listener; a follower of it carries fence+1.
	newRep, err := NewPrimary(r.PromotedLog(), "127.0.0.1:0", fastPrimaryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer newRep.Close()
	fsR2 := wal.NewMemFS()
	r2, err := New("mir2", newRep.Addr(), fastReplicaOpts(fsR2))
	if err != nil {
		t.Fatal(err)
	}
	go r2.Run()
	waitCaughtUp(t, r2, pro.Seq)
	r2.Stop()

	// Point that follower at the DEPOSED primary: its hello carries the
	// higher fence, so the old primary must fence itself and refuse.
	r3, err := New("mir2", p.rep.Addr(), fastReplicaOpts(fsR2))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r3.Run() }()
	select {
	case err := <-errCh:
		if err != ErrDeposed {
			t.Fatalf("follower of deposed primary returned %v, want ErrDeposed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never detected the deposed primary")
	}
	r3.Stop()

	if !p.log.Fenced() {
		t.Fatal("deposed primary did not fence itself")
	}
	if _, err := p.log.Append([]wal.Record{{Type: wal.TAddEdge, U: 0, V: 2, Weight: 1}}); err != wal.ErrFenced {
		t.Fatalf("deposed primary write returned %v, want ErrFenced", err)
	}
}
