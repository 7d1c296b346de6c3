package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/stats"
)

func postMutations(t *testing.T, h http.Handler, ops []Mutation) int {
	t.Helper()
	body, err := json.Marshal(mutateRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/mutate", bytes.NewReader(body)))
	return rec.Code
}

func awaitQuiesced(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !srv.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatal("server never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeConcurrentReadsDuringEpochSwap is the race-detector hammer:
// GOMAXPROCS goroutines read every endpoint flat-out while the writer swaps
// epochs underneath them. Run under -race (the Makefile race and serve-smoke
// targets do), this is the proof that the RCU read path is synchronization-
// free but race-free: readers touch only the epoch snapshot they loaded.
func TestServeConcurrentReadsDuringEpochSwap(t *testing.T) {
	const n = 500
	g := gen.SparseErdosRenyi(stats.NewRand(11), n, 8.0/float64(n-1))
	srv, err := New(g, Config{SkipCDS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	workers := runtime.GOMAXPROCS(0)
	queriesPer := 3000
	if testing.Short() {
		queriesPer = 500
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			targets := []string{
				"/route?from=%d", "/labels?node=%d", "/khop?node=%d&k=2",
				"/centrality/topk?k=8", "/labels", "/metrics", "/healthz",
			}
			for i := 0; i < queriesPer; i++ {
				h := splitmix64(uint64(wid)<<20 ^ uint64(i))
				target := targets[h%uint64(len(targets))]
				if bytes.ContainsRune([]byte(target), '%') {
					target = fmt.Sprintf(target, h%n)
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code >= 500 {
					errCh <- fmt.Errorf("%s: status %d body %s", target, rec.Code, rec.Body.String())
					return
				}
			}
		}(wid)
	}

	// Writer load: continuous small batches of add/remove pairs until the
	// readers finish, so epoch swaps overlap the reads the whole time.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	r := stats.NewRand(23)
	var prev []Mutation
loop:
	for {
		select {
		case <-done:
			break loop
		default:
		}
		ops := make([]Mutation, 0, 8)
		for _, m := range prev {
			ops = append(ops, Mutation{Op: "remove", U: m.U, V: m.V})
		}
		prev = prev[:0]
		for i := 0; i < 4; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			m := Mutation{Op: "add", U: u, V: v}
			ops = append(ops, m)
			prev = append(prev, m)
		}
		if len(ops) > 0 {
			postMutations(t, srv.Handler(), ops)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	awaitQuiesced(t, srv)
	if seq := srv.Epoch().Seq; seq < 2 {
		t.Fatalf("epoch seq = %d: no swaps happened under the hammer", seq)
	}
}

// TestEpochConsistencyProperty is the no-torn-reads property: every response
// names the epoch it was served from, and its label values must match that
// published epoch exactly — even while the writer is swapping epochs under
// the readers. OnPublish records every epoch before it becomes visible, so
// any response whose values mix two epochs fails the lookup.
func TestEpochConsistencyProperty(t *testing.T) {
	const n = 200
	g := gen.SparseErdosRenyi(stats.NewRand(31), n, 6.0/float64(n-1))
	var mu sync.Mutex
	published := map[uint64]*Epoch{}
	srv, err := New(g, Config{SkipCDS: true, OnPublish: func(ep *Epoch) {
		mu.Lock()
		published[ep.Seq] = ep
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	queries := 4000
	if testing.Short() {
		queries = 800
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < queries; i++ {
			node := int(splitmix64(uint64(i)) % n)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(
				http.MethodGet, fmt.Sprintf("/labels?node=%d", node), nil))
			var resp nodeLabelsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			ep := published[resp.Epoch]
			mu.Unlock()
			if ep == nil {
				errCh <- fmt.Errorf("response names unpublished epoch %d", resp.Epoch)
				return
			}
			wantDist, wantNext := ep.Labels.Route(node)
			if math.IsInf(wantDist, 1) {
				wantDist = -1
			}
			if resp.RouteDist != wantDist || resp.RouteNext != int(wantNext) ||
				resp.MIS != ep.Labels.InMIS(node) || resp.Degree != ep.Topo.Degree(node) {
				errCh <- fmt.Errorf("torn read: %+v does not match epoch %d at node %d", resp, ep.Seq, node)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	r := stats.NewRand(37)
	for stop := false; !stop; {
		select {
		case <-done:
			stop = true
			continue
		default:
		}
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			postMutations(t, srv.Handler(), []Mutation{{Op: "add", U: u, V: v}})
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestRouteAgreesWithBFS is the regression pinning the serving path to
// ground truth: after a mutation batch quiesces, every /route response must
// report the BFS hop distance on the mutated topology, and its next-hop path
// must walk real edges of that topology.
func TestRouteAgreesWithBFS(t *testing.T) {
	const n = 150
	mirror := gen.SparseErdosRenyi(stats.NewRand(41), n, 5.0/float64(n-1))
	srv, err := New(mirror.Clone(), Config{SkipCDS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	// Mutate through the server and mirror the accepted ops locally with the
	// same semantics (duplicate adds and missing removes are rejected).
	r := stats.NewRand(43)
	var ops []Mutation
	for len(ops) < 60 {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if r.Intn(2) == 0 {
			if !mirror.HasEdge(u, v) {
				if err := mirror.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			ops = append(ops, Mutation{Op: "add", U: u, V: v})
		} else {
			mirror.RemoveEdge(u, v) // no-op when absent, same as the engine
			ops = append(ops, Mutation{Op: "remove", U: u, V: v})
		}
	}
	if code := postMutations(t, srv.Handler(), ops); code != http.StatusAccepted {
		t.Fatalf("mutate status %d", code)
	}
	awaitQuiesced(t, srv)
	requireRoutesMatchBFS(t, srv.Handler(), mirror, 0)
}

// requireRoutesMatchBFS checks every node's /route answer against a BFS
// over g toward dest: the hop count, and a path of that many real edges.
func requireRoutesMatchBFS(t *testing.T, h http.Handler, g *graph.Graph, dest int) {
	t.Helper()
	wantDist, _, err := g.BFS(dest)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(
			http.MethodGet, fmt.Sprintf("/route?from=%d", v), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("route %d: status %d", v, rec.Code)
		}
		var resp routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want := float64(wantDist[v])
		if wantDist[v] < 0 {
			want = -1
		}
		if resp.Dist != want {
			t.Fatalf("route %d: dist %v, want %v (BFS)", v, resp.Dist, want)
		}
		if want < 0 {
			continue
		}
		if len(resp.Path) != int(want)+1 {
			t.Fatalf("route %d: path %v has %d hops, want %v", v, resp.Path, len(resp.Path)-1, want)
		}
		for i := 0; i+1 < len(resp.Path); i++ {
			if !g.HasEdge(resp.Path[i], resp.Path[i+1]) {
				t.Fatalf("route %d: path step (%d,%d) is not an edge", v, resp.Path[i], resp.Path[i+1])
			}
		}
	}
}

// TestShutdownDuringBatchAbandonsWithoutPublishing pins the shutdown
// contract end to end: cancellation landing while the writer is mid-batch
// neither hangs the shutdown nor publishes a half-healed epoch — the last
// published epoch stays live and the batch is counted as aborted.
func TestShutdownDuringBatchAbandonsWithoutPublishing(t *testing.T) {
	srv, err := New(fixtureGraph(t), Config{Dest: 0})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	srv.testHookBatch = func() {
		close(started)
		<-srv.ctx.Done() // park mid-batch until shutdown fires
	}
	if code := postMutations(t, srv.Handler(), []Mutation{{Op: "remove", U: 2, V: 3}}); code != http.StatusAccepted {
		t.Fatalf("mutate status %d", code)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never started the batch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown hung on an in-progress batch: %v", err)
	}
	if seq := srv.Epoch().Seq; seq != 1 {
		t.Fatalf("epoch seq = %d: an abandoned batch must not publish", seq)
	}
	if got := srv.met.abortedBatches.Load(); got != 1 {
		t.Fatalf("aborted batches = %d, want 1", got)
	}
}
