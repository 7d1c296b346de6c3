package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"structura/internal/graph"
)

// fixtureGraph is the deterministic 6-node graph the golden tests pin:
//
//	0—1—2—3—4—5  plus the chord 1—3
//
// Connected (so the CDS backbone exists), with hand-checkable labels:
// BFS from 0 gives dist {0,1,2,2,3,4}; degrees are {1,3,2,3,2,1}.
func fixtureGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func newFixtureServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(fixtureGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

func do(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHandlerGoldens pins every endpoint's exact response bytes on the
// fixture graph: valid queries, out-of-range nodes, malformed parameters and
// bodies, and method misuse. A serialization change that breaks clients
// breaks these first.
func TestHandlerGoldens(t *testing.T) {
	srv := newFixtureServer(t, Config{Dest: 0})
	cases := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantBody   string
	}{
		{"route far node", "GET", "/route?from=5", "",
			200, `{"epoch":1,"from":5,"dest":0,"dist":4,"path":[5,4,3,1,0]}`},
		{"route at dest", "GET", "/route?from=0", "",
			200, `{"epoch":1,"from":0,"dest":0,"dist":0,"path":[0]}`},
		{"route out of range", "GET", "/route?from=99", "",
			400, `{"error":"node 99 out of range [0,6)"}`},
		{"route missing param", "GET", "/route", "",
			400, `{"error":"missing \"from\" parameter"}`},
		{"route non-integer", "GET", "/route?from=abc", "",
			400, `{"error":"\"from\" must be an integer"}`},
		{"khop two hops", "GET", "/khop?node=1&k=2", "",
			200, `{"epoch":1,"node":1,"k":2,"count":4,"nodes":[0,2,3,4]}`},
		{"khop default k", "GET", "/khop?node=0", "",
			200, `{"epoch":1,"node":0,"k":1,"count":1,"nodes":[1]}`},
		{"khop k over cap", "GET", "/khop?node=1&k=9", "",
			400, `{"error":"k 9 exceeds the configured cap 4"}`},
		{"khop k malformed", "GET", "/khop?node=1&k=-2", "",
			400, `{"error":"\"k\" must be a positive integer"}`},
		{"topk", "GET", "/centrality/topk?k=3", "",
			200, `{"epoch":1,"k":3,"nodes":[{"node":1,"score":3},{"node":3,"score":3},{"node":2,"score":2}]}`},
		{"topk clamped to n", "GET", "/centrality/topk?k=100", "",
			200, `{"epoch":1,"k":6,"nodes":[{"node":1,"score":3},{"node":3,"score":3},{"node":2,"score":2},{"node":4,"score":2},{"node":0,"score":1},{"node":5,"score":1}]}`},
		{"cds member", "GET", "/cds/member?node=1", "",
			200, `{"epoch":1,"node":1,"member":true,"size":5}`},
		{"cds non-member", "GET", "/cds/member?node=5", "",
			200, `{"epoch":1,"node":5,"member":false,"size":5}`},
		{"labels node", "GET", "/labels?node=3", "",
			200, `{"epoch":1,"node":3,"degree":3,"route_dist":2,"route_next":1,"mis":false,"cds":true}`},
		{"labels summary", "GET", "/labels", "",
			200, `{"epoch":1,"nodes":6,"edges":6,"dest":0,"mis_size":3,"cds_size":5,"unreachable":0}`},
		{"healthz", "GET", "/healthz", "",
			200, `{"status":"ok","epoch":1}`},
		{"mutate wrong method", "GET", "/mutate", "",
			405, `{"error":"mutate requires POST"}`},
		{"mutate malformed body", "POST", "/mutate", `{"ops": not json`,
			400, `{"error":"malformed body: invalid character 'o' in literal null (expecting 'u')"}`},
		{"mutate empty ops", "POST", "/mutate", `{"ops":[]}`,
			400, `{"error":"empty ops"}`},
		{"mutate bad op", "POST", "/mutate", `{"ops":[{"op":"toggle","u":0,"v":1}]}`,
			400, `{"error":"op \"toggle\" must be \"add\" or \"remove\""}`},
		{"mutate self-loop", "POST", "/mutate", `{"ops":[{"op":"add","u":2,"v":2}]}`,
			400, `{"error":"edge (2,2) out of range or self-loop"}`},
		{"mutate out of range", "POST", "/mutate", `{"ops":[{"op":"add","u":0,"v":42}]}`,
			400, `{"error":"edge (0,42) out of range or self-loop"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(srv.Handler(), tc.method, tc.target, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != tc.wantBody {
				t.Fatalf("body:\n got %s\nwant %s", got, tc.wantBody)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
		})
	}
}

// TestCDSMemberAbsentBackbone: with SkipCDS the backbone endpoint answers
// 404 and the labels drop their cds field.
func TestCDSMemberAbsentBackbone(t *testing.T) {
	srv := newFixtureServer(t, Config{Dest: 0, SkipCDS: true})
	rec := do(srv.Handler(), "GET", "/cds/member?node=1", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	want := `{"error":"cds backbone not maintained: disabled by config"}`
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
	rec = do(srv.Handler(), "GET", "/labels?node=3", "")
	want = `{"epoch":1,"node":3,"degree":3,"route_dist":2,"route_next":1,"mis":false}`
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
	rec = do(srv.Handler(), "GET", "/labels", "")
	want = `{"epoch":1,"nodes":6,"edges":6,"dest":0,"mis_size":3,"cds_size":-1,"unreachable":0}`
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
}

// TestMutateAccepted: a valid batch is acknowledged with 202 and eventually
// drained into a new epoch.
func TestMutateAccepted(t *testing.T) {
	srv := newFixtureServer(t, Config{Dest: 0})
	rec := do(srv.Handler(), "POST", "/mutate", `{"ops":[{"op":"add","u":0,"v":5},{"op":"remove","u":1,"v":3}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (body %q)", rec.Code, rec.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("mutations never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
	ep := srv.Epoch()
	if ep.Seq < 2 {
		t.Fatalf("epoch seq = %d, want >= 2 after a mutation batch", ep.Seq)
	}
	// 0—5 now exists: node 5 is one hop from the destination.
	rec = do(srv.Handler(), "GET", "/route?from=5", "")
	want := `{"epoch":` + strconv.FormatUint(ep.Seq, 10) + `,"from":5,"dest":0,"dist":1,"path":[5,0]}`
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
}

// TestShedAt429: with the semaphore held, query endpoints shed instantly
// with 429 while /metrics and /healthz stay reachable.
func TestShedAt429(t *testing.T) {
	srv := newFixtureServer(t, Config{Dest: 0, MaxInFlight: 1})
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()
	rec := do(srv.Handler(), "GET", "/route?from=1", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	want := `{"error":"overloaded, retry later"}`
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
	if rec = do(srv.Handler(), "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz sheds under load: status %d", rec.Code)
	}
	if rec = do(srv.Handler(), "GET", "/metrics", ""); rec.Code != http.StatusOK {
		t.Fatalf("metrics sheds under load: status %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Endpoints["/route"].Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Endpoints["/route"].Shed)
	}
}

// TestMutateQueueFull429: with the writer parked mid-batch and the queue
// full, further mutations shed with 429 and an accurate accepted count.
func TestMutateQueueFull429(t *testing.T) {
	g := fixtureGraph(t)
	srv, err := New(g, Config{Dest: 0, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	// Park the writer inside its current batch so nothing drains.
	parked := make(chan struct{})
	srv.testHookBatch = func() { <-parked }
	defer close(parked)
	rec := do(srv.Handler(), "POST", "/mutate", `{"ops":[{"op":"add","u":0,"v":2}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first mutate: status %d", rec.Code)
	}
	// Wait for the writer to pick up the first op and park.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.mutCh) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first op")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the queue (capacity 1), then overflow it in one batch.
	rec = do(srv.Handler(), "POST", "/mutate", `{"ops":[{"op":"add","u":0,"v":3},{"op":"add","u":0,"v":4}]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow mutate: status %d, want 429", rec.Code)
	}
	want := `{"accepted":1,"queued":1}`
	if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
}

// TestPostShutdown503: after Shutdown every endpoint, including the
// observability ones, answers 503 with a stable body.
func TestPostShutdown503(t *testing.T) {
	srv, err := New(fixtureGraph(t), Config{Dest: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{
		"/route?from=1", "/khop?node=1", "/centrality/topk", "/cds/member?node=0",
		"/labels", "/mutate", "/metrics", "/healthz",
	} {
		rec := do(srv.Handler(), "GET", target, "")
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s after shutdown: status %d, want 503", target, rec.Code)
		}
		want := `{"error":"server shutting down"}`
		if got := strings.TrimSuffix(rec.Body.String(), "\n"); got != want {
			t.Fatalf("%s body = %s, want %s", target, got, want)
		}
	}
}
