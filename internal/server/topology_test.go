package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/stats"
	"structura/internal/wal"
)

// chordedRing is a connected n-node support (so the CDS engine runs too):
// a ring plus n/2 seeded chords.
func chordedRing(n int) *graph.Graph {
	g := gen.Ring(n)
	r := stats.NewRand(5)
	for g.M() < n+n/2 {
		g.TryAddEdge(r.Intn(n), r.Intn(n), 1)
	}
	return g
}

// nonEdge returns the first node pair (u<v) with no edge between them.
func nonEdge(g *graph.Graph) (int, int) {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	panic("complete graph")
}

// sharedServer builds a CDS-enabled server journaling to a MemFS WAL. The
// graph handed to New is the caller's, a different pointer from the log's
// replica but the same topology.
func sharedServer(t *testing.T) (*Server, *wal.Log) {
	t.Helper()
	g := chordedRing(30)
	l, err := wal.Create("store", g, wal.Options{FS: wal.NewMemFS(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{Dest: 0, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		_ = l.Close()
	})
	return s, l
}

// labelsHash hashes every label of l node by node, plus its header.
func labelsHash(l *Labels) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, l.N(), l.Destination(), l.HasBackbone())
	var buf [14]byte
	for v := 0; v < l.N(); v++ {
		d, nx := l.Route(v)
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(d))
		binary.LittleEndian.PutUint32(buf[8:], uint32(nx))
		buf[12], buf[13] = byte(b2i(l.InMIS(v))), byte(b2i(l.InCDS(v)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sameLabels reports whether the epoch labels got hold exactly the label
// set want.
func sameLabels(got *Labels, want *wal.LabelSet) bool {
	if got.N() != want.N() || got.Destination() != want.Dest || got.HasBackbone() != want.HasCDS {
		return false
	}
	for v := 0; v < got.N(); v++ {
		d, nx := got.Route(v)
		if d != want.Dist[v] || nx != want.Next[v] || got.InMIS(v) != want.MIS[v] ||
			(want.HasCDS && got.InCDS(v) != want.CDS[v]) {
			return false
		}
	}
	return true
}

// TestPublishEqualsJournal pins the one-snapshot contract on a seeded churn
// run with the backbone on: every epoch publishes exactly the labels the
// engines hold — read in full, whatever the batch's candidates were — and
// exactly the label set wal.Open recovers from a crash image taken as it
// is published, its counts are counts of that set, its lazily computed
// ranking orders the epoch's own topology by degree, and that topology is
// the writer's graph. The support spans several adjacency and
// label pages, so each epoch shares the pages its batch did not touch with
// the one before, and the previous epoch's topology and labels must be
// unchanged by the next publish. The run repeats with a repair budget of
// one node, so escalations republish every label page.
func TestPublishEqualsJournal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget heal.Budget
	}{
		{"repair", heal.Budget{}},
		{"escalate", heal.Budget{MaxTouched: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := publishEqualsJournal(t, tc.budget)
			if esc := s.met.escalations.Load(); tc.budget.MaxTouched > 0 && esc == 0 {
				t.Fatal("a one-node repair budget never escalated")
			}
		})
	}
}

func publishEqualsJournal(t *testing.T, budget heal.Budget) *Server {
	g := chordedRing(400)
	fsys := wal.NewMemFS()
	l, err := wal.Create("store", g, wal.Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var s *Server // set once New returns; epoch 1 is a full read anyway
	published := 0
	var prev *Epoch
	var prevHash, prevLabels uint64
	onPublish := func(ep *Epoch) {
		published++
		// OnPublish runs on the writer, so reading its graph here is safe.
		hash := wal.CSRHash(ep.Topo)
		if w := l.Graph(); hash != wal.GraphHash(w) || ep.Topo.M() != w.M() {
			t.Errorf("epoch %d: topology (hash %016x, %d edges) is not the writer's graph (hash %016x, %d edges)",
				ep.Seq, hash, ep.Topo.M(), wal.GraphHash(w), w.M())
		}
		if prev != nil && (wal.CSRHash(prev.Topo) != prevHash || labelsHash(prev.Labels) != prevLabels) {
			t.Errorf("epoch %d changed when epoch %d was built", prev.Seq, ep.Seq)
		}
		prev, prevHash, prevLabels = ep, hash, labelsHash(ep.Labels)
		got := ep.Labels
		if s != nil {
			if full, _ := buildLabels(&s.src, s.n, s.cfg.Dest); labelsHash(got) != labelsHash(full) {
				t.Errorf("epoch %d publishes labels that differ from the engines'", ep.Seq)
			}
		}
		// OnPublish runs on the writer goroutine: report with Errorf.
		l2, rec, err := wal.Open("store", wal.Options{FS: fsys.CrashImage(uint64(ep.Seq)), CompactEvery: -1})
		if err != nil {
			t.Errorf("epoch %d: recovering a crash image: %v", ep.Seq, err)
			return
		}
		l2.Close()
		if rec.Labels == nil || !sameLabels(got, rec.Labels) {
			t.Errorf("epoch %d publishes labels that differ from the journaled set", ep.Seq)
		}
		if !got.HasBackbone() {
			t.Errorf("epoch %d: backbone absent on a connected support", ep.Seq)
		}
		mis, cds, unreachable := 0, 0, 0
		for v := 0; v < got.N(); v++ {
			if d, _ := got.Route(v); math.IsInf(d, 1) {
				unreachable++
			}
			if got.InMIS(v) {
				mis++
			}
			if got.InCDS(v) {
				cds++
			}
		}
		if ep.MISSize != mis || ep.CDSSize != cds || ep.Unreachable != unreachable {
			t.Errorf("epoch %d: sizes mis %d cds %d unreachable %d, recounts %d %d %d",
				ep.Seq, ep.MISSize, ep.CDSSize, ep.Unreachable, mis, cds, unreachable)
		}
		rank := make([]int, ep.Topo.N())
		for v := range rank {
			rank[v] = v
		}
		sort.SliceStable(rank, func(i, j int) bool { return ep.Topo.Degree(rank[i]) > ep.Topo.Degree(rank[j]) })
		if !slices.Equal(ep.Rank(), rank) {
			t.Errorf("epoch %d: ranking %v, want IDs by descending degree %v", ep.Seq, ep.Rank(), rank)
		}
	}
	s, err = New(g, Config{Dest: 0, WAL: l, OnPublish: onPublish, RepairBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	// Churn chords only: the ring keeps the support connected, so the
	// backbone stays maintained throughout.
	n := g.N()
	ring := func(u, v int) bool { return (u-v+n)%n == 1 || (v-u+n)%n == 1 }
	r := stats.NewRand(23)
	const batches = 12
	for b := 0; b < batches; b++ {
		var ops []Mutation
		for len(ops) < 4 {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || ring(u, v) {
				continue
			}
			op := "add"
			if r.Intn(2) == 0 {
				op = "remove"
			}
			ops = append(ops, Mutation{Op: op, U: u, V: v})
		}
		if code := postMutations(t, s.Handler(), ops); code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d", b, code)
		}
		awaitQuiesced(t, s)
	}
	// Each post is awaited, so no batch spans two; the writer may split one.
	if published < batches+1 {
		t.Fatalf("%d epochs published, want at least the startup epoch plus %d batches", published, batches)
	}
	return s
}

// TestLeafLosesItsOnlyEdge: removing the only edge of a degree-1 node whose
// route uses it leaves that node consistent at (+Inf, -1) without any
// repair touching it — only EdgeRemoved's poisoning moves its label. The
// next epoch must still report it unreachable, and so must the journal.
func TestLeafLosesItsOnlyEdge(t *testing.T) {
	g := chordedRing(40)
	leaf := g.AddNode()
	g.AddEdge(leaf, 7)
	fsys := wal.NewMemFS()
	l, err := wal.Create("store", g, wal.Options{FS: fsys, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := New(g, Config{Dest: 0, WAL: l, SkipCDS: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, next := s.Epoch().Labels.Route(leaf); next != 7 {
		t.Fatalf("leaf routes via %d, want its only neighbor 7", next)
	}
	if code := postMutations(t, s.Handler(), []Mutation{{Op: "remove", U: leaf, V: 7}}); code != http.StatusAccepted {
		t.Fatalf("mutate: status %d", code)
	}
	awaitQuiesced(t, s)
	var resp nodeLabelsResponse
	body := do(s.Handler(), http.MethodGet, fmt.Sprintf("/labels?node=%d", leaf), "").Body.Bytes()
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RouteDist != -1 || resp.RouteNext != -1 {
		t.Fatalf("isolated leaf reports dist %v next %d, want unreachable", resp.RouteDist, resp.RouteNext)
	}
	// The journal, not the log's in-memory baseline (the epoch itself):
	// recover a crash image of the store.
	l2, rec, err := wal.Open("store", wal.Options{FS: fsys.CrashImage(1), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if rec.Labels == nil {
		t.Fatal("journal recovers no labels")
	}
	if d, next := rec.Labels.Dist[leaf], rec.Labels.Next[leaf]; !math.IsInf(d, 1) || next != -1 {
		t.Fatalf("journal holds dist %v next %d for the isolated leaf", d, next)
	}
	if ep := s.Epoch(); ep.Unreachable != 1 {
		t.Fatalf("epoch counts %d unreachable node(s), want the leaf alone", ep.Unreachable)
	}
}

// TestLabelsHashOncePerEpoch: /labels?hash=1 hashes an epoch's topology
// once. Two hashed summaries of one epoch agree with the writer's graph,
// and after the first one the epoch's hash is a cached read that allocates
// nothing.
func TestLabelsHashOncePerEpoch(t *testing.T) {
	s, l := sharedServer(t)
	u, v := nonEdge(l.Graph())
	if code := postMutations(t, s.Handler(), []Mutation{{Op: "add", U: u, V: v}}); code != http.StatusAccepted {
		t.Fatalf("mutate: status %d", code)
	}
	awaitQuiesced(t, s)
	ep := s.Epoch()
	want := fmt.Sprintf("%016x", wal.GraphHash(l.Graph()))
	for i := 0; i < 2; i++ {
		var sum summaryResponse
		if err := json.Unmarshal(do(s.Handler(), http.MethodGet, "/labels?hash=1", "").Body.Bytes(), &sum); err != nil {
			t.Fatal(err)
		}
		if sum.Epoch != ep.Seq || sum.GraphHash != want {
			t.Fatalf("summary %d: epoch %d hash %s, want epoch %d hash %s", i, sum.Epoch, sum.GraphHash, ep.Seq, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { ep.GraphHash() }); allocs != 0 {
		t.Fatalf("cached GraphHash allocates %.0f times per call", allocs)
	}
}

// TestSupervisorsShareTheWALGraph pins the one-topology contract: with a
// WAL, every supervisor's engine reads the log's replica itself.
func TestSupervisorsShareTheWALGraph(t *testing.T) {
	s, l := sharedServer(t)
	if s.cds == nil {
		t.Fatalf("CDS engine absent: %s", s.cdsErr)
	}
	for _, sup := range s.supervisors() {
		if sup.Engine.Live() != l.Graph() {
			t.Fatalf("%s engine reads its own graph, not the WAL's", sup.Engine.Name())
		}
	}
	if s.g != l.Graph() {
		t.Fatal("writer topology is not the WAL's graph")
	}
}

// TestBatchEdgeCasesOnSharedTopology drives one batch holding a duplicate
// add, a missing remove, and a remove-then-re-add of a node's current
// next-hop edge. The engines hear of it only after the log applied all of
// it, and the published epoch must still match the log's topology and
// route along BFS shortest paths.
func TestBatchEdgeCasesOnSharedTopology(t *testing.T) {
	s, l := sharedServer(t)
	g := l.Graph()
	ep := s.Epoch()
	x := -1
	for v := 1; v < g.N(); v++ {
		if _, next := ep.Labels.Route(v); next >= 0 {
			x = v
			break
		}
	}
	if x < 0 {
		t.Fatal("no node with a next hop")
	}
	_, next := ep.Labels.Route(x)
	y := int(next)
	dup := g.Edges()[0]
	missU, missV := nonEdge(g)

	// Park the writer on a first op so the whole second post drains as one
	// batch. The writer must be inside the hook, not merely past its
	// receive of the first op: until it reaches the hook it is still
	// draining the queue into the first batch. Once parked is closed the
	// hook returns at once.
	parked := make(chan struct{})
	reached := make(chan struct{}, 1)
	s.testHookBatch = func() {
		select {
		case reached <- struct{}{}:
		default:
		}
		<-parked
	}
	if code := postMutations(t, s.Handler(), []Mutation{{Op: "add", U: dup.From, V: dup.To}}); code != http.StatusAccepted {
		t.Fatalf("first mutate: status %d", code)
	}
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never picked up the first op")
	}
	batch := []Mutation{
		{Op: "add", U: dup.From, V: dup.To},
		{Op: "remove", U: missU, V: missV},
		{Op: "remove", U: x, V: y},
		{Op: "add", U: x, V: y},
	}
	if code := postMutations(t, s.Handler(), batch); code != http.StatusAccepted {
		t.Fatalf("batch mutate: status %d", code)
	}
	close(parked)
	awaitQuiesced(t, s)
	if got := s.Epoch().Seq; got != ep.Seq+2 {
		t.Fatalf("epoch %d after two batches from %d", got, ep.Seq)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/labels?hash=1", nil))
	var sum summaryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", wal.GraphHash(g)); sum.GraphHash != want {
		t.Fatalf("/labels graph_hash %s, WAL topology %s", sum.GraphHash, want)
	}
	requireRoutesMatchBFS(t, s.Handler(), g, 0)
	for _, sup := range s.supervisors() {
		if v := sup.Sweep(); len(v) != 0 {
			t.Fatalf("%s: %d standing violation(s), first %s", sup.Engine.Name(), len(v), v[0])
		}
	}
}

// TestNewRejectsTopologyMismatch: New must refuse a graph whose topology
// differs from the WAL's — by size, or by edges at equal size — and accept
// an equal copy.
func TestNewRejectsTopologyMismatch(t *testing.T) {
	g := chordedRing(30)
	l, err := wal.Create("store", g, wal.Options{FS: wal.NewMemFS(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	u, v := nonEdge(g)
	extra := g.Clone()
	extra.TryAddEdge(u, v, 1)
	swapped := g.Clone()
	e := swapped.Edges()[0]
	swapped.RemoveEdge(e.From, e.To)
	swapped.TryAddEdge(u, v, 1)
	for name, bad := range map[string]*graph.Graph{"extra edge": extra, "swapped edge": swapped} {
		if wal.GraphHash(bad) == wal.GraphHash(g) {
			t.Fatalf("%s: fixture equals the log's graph", name)
		}
		if s, err := New(bad, Config{WAL: l, SkipCDS: true}); err == nil {
			s.Shutdown(context.Background())
			t.Fatalf("%s: New accepted a graph that differs from the WAL's", name)
		}
	}
	s, err := New(g.Clone(), Config{WAL: l, SkipCDS: true})
	if err != nil {
		t.Fatalf("equal copy rejected: %v", err)
	}
	s.Shutdown(context.Background())
}

// TestMutateRefusesOversizedPosts: a post with more ops than the queue
// plus one writer batch hold, or a body larger than that many ops can take,
// gets 413, enqueues nothing, and the server keeps serving.
func TestMutateRefusesOversizedPosts(t *testing.T) {
	s, err := New(chordedRing(30), Config{SkipCDS: true, QueueDepth: 8, BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	ops := make([]Mutation, 13)
	for i := range ops {
		ops[i] = Mutation{Op: "add", U: i, V: i + 14}
	}
	if code := postMutations(t, s.Handler(), ops); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("13 ops past a queue of 8 and batches of 4: status %d, want 413", code)
	}
	padded := `{"ops":[{"op":"add","u":1,"v":12}]` + strings.Repeat(" ", 2048) + `}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(padded)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", rec.Code, rec.Body.String())
	}
	if got := s.accepted.Load(); got != 0 {
		t.Fatalf("%d op(s) enqueued by refused posts", got)
	}
	if code := postMutations(t, s.Handler(), ops[:8]); code != http.StatusAccepted {
		t.Fatalf("8 ops after refusals: status %d", code)
	}
	awaitQuiesced(t, s)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/labels", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/labels after refusals: status %d", rec.Code)
	}
}
