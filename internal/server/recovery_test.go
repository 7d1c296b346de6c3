package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"structura/internal/gen"
	"structura/internal/heal"
	"structura/internal/stats"
	"structura/internal/wal"
)

func metricsSnap(t *testing.T, h http.Handler) MetricsSnapshot {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap MetricsSnapshot
	if err := json.NewDecoder(rw.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return snap
}

// TestServerWarmStartFromLabels covers the durable-epoch restart: a server
// journals its label epochs alongside the topology, so a clean restart
// recovers them, warm-starts every engine without a recompute, and serves
// the identical state.
func TestServerWarmStartFromLabels(t *testing.T) {
	mem := wal.NewMemFS()
	s, l := journaledServer(t, mem, Config{Dest: 0})

	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"add","u":1,"v":7},{"op":"add","u":2,"v":9}]}`)
	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"remove","u":1,"v":7},{"op":"add","u":3,"v":30}]}`)
	waitQuiesced(t, s)
	served := wal.CSRHash(s.Epoch().Topo)
	wantDist, wantNext := s.src.route.RouteLabels()

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	l2, rec, err := wal.Open("store", wal.Options{FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Labels == nil {
		t.Fatal("recovery carried no label epoch")
	}
	if rec.Labels.Seq != rec.Seq {
		t.Fatalf("label epoch at seq %d, topology at %d — clean shutdown should agree", rec.Labels.Seq, rec.Seq)
	}
	if len(rec.Dirty) != 0 {
		t.Fatalf("clean shutdown left %d dirty node(s): %v", len(rec.Dirty), rec.Dirty)
	}

	s2, err := New(l2.Graph(), Config{Dest: 0, SkipCDS: true, WAL: l2, Recovered: &rec})
	if err != nil {
		t.Fatalf("server after recovery: %v", err)
	}
	defer s2.Shutdown(context.Background())

	if got := wal.CSRHash(s2.Epoch().Topo); got != served {
		t.Fatalf("recovered server serves hash %x, want %x", got, served)
	}
	gotDist, gotNext := s2.src.route.RouteLabels()
	for v := range wantDist {
		if wantDist[v] != gotDist[v] || wantNext[v] != gotNext[v] {
			t.Fatalf("route label %d diverged after warm start: (%v,%d) vs (%v,%d)",
				v, wantDist[v], wantNext[v], gotDist[v], gotNext[v])
		}
	}
	// The warm start is trusted, not swept — audit it here instead.
	for _, sup := range s2.supervisors() {
		if v := sup.Sweep(); len(v) != 0 {
			t.Fatalf("post-warm-start sweep found %d violation(s): %v", len(v), v[0])
		}
	}

	snap := metricsSnap(t, s2.Handler())
	if snap.WAL == nil || !snap.WAL.WarmStart {
		t.Fatalf("metrics did not report a warm start: %+v", snap.WAL)
	}
	if snap.WAL.ReadyNs <= 0 || snap.WAL.RecoveryNs <= 0 {
		t.Fatalf("ready_ns %d / recovery_ns %d must both be positive", snap.WAL.ReadyNs, snap.WAL.RecoveryNs)
	}
	if snap.WAL.ReadyNs < snap.WAL.RecoveryNs {
		t.Fatalf("ready_ns %d < recovery_ns %d — ready must include recovery", snap.WAL.ReadyNs, snap.WAL.RecoveryNs)
	}
	if snap.WAL.RecoveryStanding != 0 {
		t.Fatalf("warm-start heal left %d standing violation(s)", snap.WAL.RecoveryStanding)
	}
}

// TestJournalBeforePublishCrash pins the ordering contract: the topology
// batch is journaled before the label epoch, so a crash between the two
// leaves durable labels strictly behind the durable topology — never ahead.
// The recovered server warm-starts from the lagging epoch, heals the dirty
// set recovery reports, and converges to the same labels a cold rebuild
// computes over the recovered topology.
func TestJournalBeforePublishCrash(t *testing.T) {
	mem := wal.NewMemFS()
	fsys := wal.NewFaultFS(mem, 7, -1)
	s, l := journaledServerOn(t, fsys, Config{Dest: 0})

	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"add","u":1,"v":7}]}`)
	waitQuiesced(t, s)
	labelSeqBefore := l.Metrics().LabelSeq

	// Fail the write after the topology append + fsync: the label epoch for
	// this batch never becomes durable, the writer aborts without
	// publishing — the crash point satellite (b) names.
	fsys.ShortWriteAt(fsys.Ops() + 2)
	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"add","u":2,"v":9}]}`)
	waitQuiesced(t, s)
	if s.met.walFailed.Load() != 1 {
		t.Fatalf("walFailed = %d, want 1 (label append must have failed)", s.met.walFailed.Load())
	}
	_ = s.Shutdown(context.Background())

	// Crash: only synced bytes survive.
	img := mem.CrashImage(1)
	l2, rec, err := wal.Open("store", wal.Options{FS: img})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()

	if rec.Labels == nil {
		t.Fatal("durable label epoch lost entirely")
	}
	if rec.Labels.Seq > rec.Seq {
		t.Fatalf("recovered labels at seq %d are AHEAD of durable topology seq %d", rec.Labels.Seq, rec.Seq)
	}
	if rec.Labels.Seq != labelSeqBefore || rec.Labels.Seq >= rec.Seq {
		t.Fatalf("labels at seq %d, topology at %d — want the pre-crash epoch %d strictly behind",
			rec.Labels.Seq, rec.Seq, labelSeqBefore)
	}
	if len(rec.Dirty) == 0 {
		t.Fatal("label lag reported no dirty nodes")
	}

	s2, err := New(l2.Graph(), Config{Dest: 0, SkipCDS: true, WAL: l2, Recovered: &rec})
	if err != nil {
		t.Fatalf("server after crash recovery: %v", err)
	}
	defer s2.Shutdown(context.Background())

	snap := metricsSnap(t, s2.Handler())
	if snap.WAL == nil || !snap.WAL.WarmStart {
		t.Fatal("crash recovery did not warm-start")
	}
	if snap.WAL.DirtyHealed == 0 {
		t.Fatal("warm start healed no dirty nodes despite the label lag")
	}
	if snap.WAL.RecoveryStanding != 0 {
		t.Fatalf("warm-start heal left %d standing violation(s)", snap.WAL.RecoveryStanding)
	}

	// The served labels match a cold rebuild over the recovered topology:
	// the recovered server never serves labels newer (or other) than what
	// the durable topology implies.
	cold, err := heal.NewDistVecEngineOver(l2.Graph(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _ := cold.(interface{ RouteLabels() ([]float64, []int) }).RouteLabels()
	gotDist, _ := s2.src.route.RouteLabels()
	for v := range wantDist {
		if wantDist[v] != gotDist[v] {
			t.Fatalf("healed dist[%d] = %v, cold rebuild = %v", v, gotDist[v], wantDist[v])
		}
	}
	for _, sup := range s2.supervisors() {
		if v := sup.Sweep(); len(v) != 0 {
			t.Fatalf("post-heal sweep found %d violation(s): %v", len(v), v[0])
		}
	}
}

// TestPromotedLabelsPassTheDetector pins that route labels are a function
// of the edge set, not of adjacency order. Churn appends new neighbors at
// the end of a row, while a compacted snapshot rebuilds every row from the
// sorted edge list, so the reopened graph lists neighbors in another order.
// After churn, compaction and a promotion, every recovered label must
// satisfy the detector — the warm start heals only the dirty set, so a
// label it does not cover is never looked at again — and the next batch
// must heal without an escalation.
func TestPromotedLabelsPassTheDetector(t *testing.T) {
	const n = 2000
	mem := wal.NewMemFS()
	opts := wal.Options{FS: mem, CompactEvery: 8}
	g := gen.SparseErdosRenyi(stats.NewRand(5), n, 8.0/float64(n-1))
	l, err := wal.Create("store", g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{SkipCDS: true, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(9)
	var adds []Mutation
	batch := func() []Mutation {
		var ops []Mutation
		k := min(10, len(adds))
		for _, m := range adds[:k] {
			ops = append(ops, Mutation{Op: "remove", U: m.U, V: m.V})
		}
		adds = adds[k:]
		for i := 0; i < 40; i++ {
			if u, v := r.Intn(n), r.Intn(n); u != v {
				m := Mutation{Op: "add", U: u, V: v}
				ops = append(ops, m)
				adds = append(adds, m)
			}
		}
		return ops
	}
	for i := 0; i < 20; i++ {
		if err := s.applyBatch(batch()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Promote("store", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Labels == nil {
		t.Fatal("recovery carried no label epoch")
	}
	s2, err := New(l2.Graph(), Config{SkipCDS: true, WAL: l2, Recovered: &rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	if bad := s2.dv.Engine.CheckLocal(all); len(bad) != 0 {
		t.Fatalf("%d promoted route label(s) fail the detector, first %s", len(bad), bad[0])
	}
	if err := s2.applyBatch(batch()); err != nil {
		t.Fatal(err)
	}
	if esc := s2.met.escalations.Load(); esc != 0 {
		t.Fatalf("%d escalation(s) after promotion, want 0", esc)
	}
}
