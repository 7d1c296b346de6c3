package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"structura/internal/gen"
	"structura/internal/stats"
	"structura/internal/wal"
)

// journaledServer builds a Server journaling to a fresh MemFS-backed WAL.
func journaledServer(t *testing.T, mem *wal.MemFS, cfg Config) (*Server, *wal.Log) {
	t.Helper()
	return journaledServerOn(t, mem, cfg)
}

// journaledServerOn is journaledServer over any wal.FS (fault injection).
func journaledServerOn(t *testing.T, fsys wal.FS, cfg Config) (*Server, *wal.Log) {
	t.Helper()
	g := gen.SparseErdosRenyi(stats.NewRand(11), 40, 0.12)
	l, err := wal.Create("store", g, wal.Options{FS: fsys, CompactEvery: 3})
	if err != nil {
		t.Fatalf("wal create: %v", err)
	}
	cfg.WAL = l
	cfg.SkipCDS = true
	s, err := New(g, cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	return s, l
}

func postMutationsJSON(t *testing.T, h http.Handler, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("mutate: status %d: %s", rw.Code, rw.Body.String())
	}
}

func waitQuiesced(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("server never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerJournalsBeforePublish drives mutations through the HTTP surface
// and checks the WAL replica tracks every published epoch: after quiescing,
// the durable replica's hash equals the served topology's hash, and a
// server rebuilt from recovery over the same store publishes the identical
// topology with a clean invariant sweep.
func TestServerJournalsBeforePublish(t *testing.T) {
	mem := wal.NewMemFS()
	s, l := journaledServer(t, mem, Config{Dest: 0})

	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"add","u":1,"v":7},{"op":"add","u":2,"v":9},{"op":"remove","u":1,"v":7}]}`)
	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"add","u":3,"v":30},{"op":"add","u":3,"v":30}]}`)
	waitQuiesced(t, s)

	served := wal.CSRHash(s.Epoch().Topo)
	if durable := wal.GraphHash(l.Graph()); durable != served {
		t.Fatalf("durable replica hash %x != served epoch hash %x", durable, served)
	}

	// /metrics exposes the WAL block.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	var snap MetricsSnapshot
	if err := json.NewDecoder(rw.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if snap.WAL == nil || snap.WAL.Batches == 0 || snap.WAL.Syncs == 0 {
		t.Fatalf("metrics missing WAL activity: %+v", snap.WAL)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// Restart: recover the store, rebuild the server over the recovered
	// graph, and compare the served topology.
	l2, rec, err := wal.Open("store", wal.Options{FS: mem})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	s2, err := New(l2.Graph(), Config{Dest: 0, SkipCDS: true, WAL: l2, Recovered: &rec})
	if err != nil {
		t.Fatalf("server after recovery: %v", err)
	}
	defer s2.Shutdown(context.Background())

	if got := wal.CSRHash(s2.Epoch().Topo); got != served {
		t.Fatalf("recovered server serves hash %x, want %x", got, served)
	}

	rw = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	snap = MetricsSnapshot{}
	if err := json.NewDecoder(rw.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if snap.WAL == nil {
		t.Fatal("recovered server metrics missing WAL block")
	}
	if snap.WAL.RecoveryStanding != 0 {
		t.Fatalf("post-recovery sweep found %d standing violation(s)", snap.WAL.RecoveryStanding)
	}
	if snap.WAL.RecoveredSeq != rec.Seq {
		t.Fatalf("metrics recovered_seq %d, want %d", snap.WAL.RecoveredSeq, rec.Seq)
	}

	// /labels?hash=1 reports the recovered topology hash.
	rw = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/labels?hash=1", nil))
	var sum summaryResponse
	if err := json.NewDecoder(rw.Body).Decode(&sum); err != nil {
		t.Fatalf("labels decode: %v", err)
	}
	if want := len("0123456789abcdef"); len(sum.GraphHash) != want {
		t.Fatalf("graph_hash %q is not a 16-hex-digit string", sum.GraphHash)
	}
}

// TestServerStopsOnJournalFailure breaks the log under the server and checks
// the writer aborts the batch instead of publishing unjournaled state.
func TestServerStopsOnJournalFailure(t *testing.T) {
	mem := wal.NewMemFS()
	fsys := wal.NewFaultFS(mem, 1, -1)
	g := gen.SparseErdosRenyi(stats.NewRand(11), 30, 0.15)
	l, err := wal.Create("store", g, wal.Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatalf("wal create: %v", err)
	}
	defer l.Close()
	s, err := New(g, Config{Dest: 0, SkipCDS: true, WAL: l})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer s.Shutdown(context.Background())

	before := s.Epoch().Seq
	fsys.ShortWriteAt(fsys.Ops()) // next write fails

	postMutationsJSON(t, s.Handler(), `{"ops":[{"op":"add","u":1,"v":20}]}`)
	waitQuiesced(t, s)

	if got := s.Epoch().Seq; got != before {
		t.Fatalf("epoch advanced to %d after a journaling failure (was %d)", got, before)
	}
	if s.met.walFailed.Load() != 1 {
		t.Fatalf("walFailed = %d, want 1", s.met.walFailed.Load())
	}

	// The writer is gone: a further post would never be applied, so it is
	// refused, and health reports the stopped writer instead of ok.
	<-s.writerDone
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(`{"ops":[{"op":"add","u":2,"v":21}]}`)),
		httptest.NewRequest(http.MethodGet, "/healthz", nil),
	} {
		rw := httptest.NewRecorder()
		s.Handler().ServeHTTP(rw, req)
		if rw.Code != http.StatusServiceUnavailable || !strings.Contains(rw.Body.String(), "writer stopped") {
			t.Fatalf("%s after the writer stopped: status %d %s, want 503 naming the stopped writer",
				req.URL.Path, rw.Code, rw.Body.String())
		}
	}
	if !s.Quiesced() {
		t.Fatal("a refused post left the server unquiesced")
	}
}

// TestGate503UntilReady covers the recovery gate: every path (including
// /healthz) answers 503 before SetReady and serves normally after.
func TestGate503UntilReady(t *testing.T) {
	gate := NewGate()
	for _, p := range []string{"/healthz", "/labels", "/route?from=1"} {
		rw := httptest.NewRecorder()
		gate.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, p, nil))
		if rw.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s before ready: status %d, want 503", p, rw.Code)
		}
	}
	if gate.Ready() {
		t.Fatal("gate reports ready before SetReady")
	}

	g := gen.SparseErdosRenyi(stats.NewRand(3), 20, 0.2)
	s, err := New(g, Config{Dest: 0, SkipCDS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	gate.SetReady(s.Handler())
	if !gate.Ready() {
		t.Fatal("gate not ready after SetReady")
	}
	rw := httptest.NewRecorder()
	gate.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("/healthz after ready: status %d, want 200", rw.Code)
	}
}
