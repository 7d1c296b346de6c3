package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// routes wires every endpoint into the mux. Query endpoints go through the
// shed gate; /metrics and /healthz bypass it so observability survives
// overload.
func (s *Server) routes() {
	s.mux.HandleFunc("/route", s.handle("/route", true, s.handleRoute))
	s.mux.HandleFunc("/khop", s.handle("/khop", true, s.handleKhop))
	s.mux.HandleFunc("/centrality/topk", s.handle("/centrality/topk", true, s.handleTopK))
	s.mux.HandleFunc("/cds/member", s.handle("/cds/member", true, s.handleCDSMember))
	s.mux.HandleFunc("/labels", s.handle("/labels", true, s.handleLabels))
	s.mux.HandleFunc("/mutate", s.handle("/mutate", true, s.handleMutate))
	s.mux.HandleFunc("/metrics", s.handle("/metrics", false, s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.handle("/healthz", false, s.handleHealthz))
}

// handlerFunc is an endpoint body that reports the status it wrote, so the
// serving wrapper can observe latency by status without allocating a
// ResponseWriter shim per request.
type handlerFunc func(w http.ResponseWriter, r *http.Request) int

// handle wraps an endpoint with the serving policy: 503 after shutdown,
// 429 shed at the concurrency limit (non-blocking semaphore acquire — a
// saturated server rejects instantly instead of queueing), in-flight
// tracking for graceful drain, and per-endpoint latency observation.
func (s *Server) handle(name string, useSem bool, fn handlerFunc) http.HandlerFunc {
	est := s.met.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		if s.closed.Load() {
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		if useSem {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				est.shed.Add(1)
				writeError(w, http.StatusTooManyRequests, "overloaded, retry later")
				return
			}
		}
		start := time.Now()
		status := fn(w, r)
		est.observe(time.Since(start), status)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, msg string) int {
	return writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// nodeParam parses a required in-range node ID query parameter.
func (s *Server) nodeParam(q url.Values, name string) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing %q parameter", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%q must be an integer", name)
	}
	if v < 0 || v >= s.n {
		return 0, fmt.Errorf("node %d out of range [0,%d)", v, s.n)
	}
	return v, nil
}

// intParam parses an optional positive integer parameter with a default.
func intParam(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%q must be a positive integer", name)
	}
	return v, nil
}

type routeResponse struct {
	Epoch uint64  `json:"epoch"`
	From  int     `json:"from"`
	Dest  int     `json:"dest"`
	Dist  float64 `json:"dist"` // hop count, -1 when unreachable
	Path  []int   `json:"path,omitempty"`
}

// handleRoute walks the distance-vector next-hop chain from the source to
// the destination. The whole walk reads one epoch, so the chain is loop-free
// by the maintainer's fixed point; the step bound is a defensive guard only.
// Unreachable sources report dist -1 (math.Inf does not marshal to JSON).
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) int {
	from, err := s.nodeParam(r.URL.Query(), "from")
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	ep := s.epoch.Load()
	ls := ep.Labels
	resp := routeResponse{Epoch: ep.Seq, From: from, Dest: ls.Destination(), Dist: -1}
	if d, _ := ls.Route(from); !math.IsInf(d, 1) {
		resp.Dist = d
		path := []int{from}
		for v := from; v != resp.Dest; {
			_, next := ls.Route(v)
			nx := int(next)
			if nx < 0 || len(path) > ls.N() {
				return writeError(w, http.StatusInternalServerError, "next-hop chain does not reach dest")
			}
			path = append(path, nx)
			v = nx
		}
		resp.Path = path
	}
	return writeJSON(w, http.StatusOK, resp)
}

type khopResponse struct {
	Epoch uint64 `json:"epoch"`
	Node  int    `json:"node"`
	K     int    `json:"k"`
	Count int    `json:"count"`
	Nodes []int  `json:"nodes"`
}

// handleKhop runs a depth-bounded BFS on the epoch's topology using pooled
// scratch (allocation-free on the hot path apart from the response), and
// returns the nodes within k hops, sorted, excluding the center.
func (s *Server) handleKhop(w http.ResponseWriter, r *http.Request) int {
	query := r.URL.Query()
	node, err := s.nodeParam(query, "node")
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	k, err := intParam(query, "k", 1)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	if k > s.cfg.MaxK {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("k %d exceeds the configured cap %d", k, s.cfg.MaxK))
	}
	ep := s.epoch.Load()
	sc := s.khopPool.Get().(*khopScratch)
	q := sc.queue[:0]
	q = append(q, int32(node))
	sc.dist[node] = 0
	for head := 0; head < len(q); head++ {
		v := q[head]
		if sc.dist[v] >= int32(k) {
			continue
		}
		for _, u := range ep.Topo.Neighbors(int(v)) {
			if sc.dist[u] < 0 {
				sc.dist[u] = sc.dist[v] + 1
				q = append(q, u)
			}
		}
	}
	nodes := make([]int, 0, len(q)-1)
	for _, v := range q {
		sc.dist[v] = -1 // reset touched entries before pooling
		if int(v) != node {
			nodes = append(nodes, int(v))
		}
	}
	sc.queue = q[:0]
	s.khopPool.Put(sc)
	sort.Ints(nodes)
	return writeJSON(w, http.StatusOK, khopResponse{
		Epoch: ep.Seq, Node: node, K: k, Count: len(nodes), Nodes: nodes,
	})
}

type rankedNode struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

type topKResponse struct {
	Epoch uint64       `json:"epoch"`
	K     int          `json:"k"`
	Nodes []rankedNode `json:"nodes"`
}

// handleTopK slices the epoch's degree-centrality ranking, which the
// epoch's first top-k query computes.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) int {
	k, err := intParam(r.URL.Query(), "k", 10)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	ep := s.epoch.Load()
	rank := ep.Rank()
	if k > len(rank) {
		k = len(rank)
	}
	nodes := make([]rankedNode, k)
	for i := 0; i < k; i++ {
		v := rank[i]
		nodes[i] = rankedNode{Node: v, Score: float64(ep.Topo.Degree(v))}
	}
	return writeJSON(w, http.StatusOK, topKResponse{Epoch: ep.Seq, K: k, Nodes: nodes})
}

type cdsMemberResponse struct {
	Epoch  uint64 `json:"epoch"`
	Node   int    `json:"node"`
	Member bool   `json:"member"`
	Size   int    `json:"size"`
}

// handleCDSMember answers backbone membership; 404 when the backbone is not
// maintained (SkipCDS, or no CDS exists over the support).
func (s *Server) handleCDSMember(w http.ResponseWriter, r *http.Request) int {
	node, err := s.nodeParam(r.URL.Query(), "node")
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	ep := s.epoch.Load()
	if !ep.Labels.HasBackbone() {
		return writeError(w, http.StatusNotFound, "cds backbone not maintained: "+s.cdsErr)
	}
	return writeJSON(w, http.StatusOK, cdsMemberResponse{
		Epoch: ep.Seq, Node: node, Member: ep.Labels.InCDS(node), Size: ep.CDSSize,
	})
}

type nodeLabelsResponse struct {
	Epoch     uint64  `json:"epoch"`
	Node      int     `json:"node"`
	Degree    int     `json:"degree"`
	RouteDist float64 `json:"route_dist"` // -1 when unreachable
	RouteNext int     `json:"route_next"` // -1 at dest / unreachable
	MIS       bool    `json:"mis"`
	CDS       *bool   `json:"cds,omitempty"` // absent when no backbone
}

type summaryResponse struct {
	Epoch       uint64 `json:"epoch"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Dest        int    `json:"dest"`
	MISSize     int    `json:"mis_size"`
	CDSSize     int    `json:"cds_size"` // -1 when no backbone
	Unreachable int    `json:"unreachable"`
	GraphHash   string `json:"graph_hash,omitempty"` // only with ?hash=1
}

// handleLabels returns one node's full label set, or the epoch summary when
// no node is named. With ?hash=1 the summary includes an order-insensitive
// hash of the epoch's topology — how a restarted server proves its recovered
// state is bit-equivalent to what the client saw before the crash. The hash
// is computed once per epoch (Epoch.GraphHash).
func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) int {
	query := r.URL.Query()
	ep := s.epoch.Load()
	ls := ep.Labels
	if query.Get("node") == "" {
		cdsSize := -1
		if ls.HasBackbone() {
			cdsSize = ep.CDSSize
		}
		resp := summaryResponse{
			Epoch: ep.Seq, Nodes: ep.Topo.N(), Edges: ep.Topo.M(), Dest: ls.Destination(),
			MISSize: ep.MISSize, CDSSize: cdsSize, Unreachable: ep.Unreachable,
		}
		if query.Get("hash") != "" {
			resp.GraphHash = fmt.Sprintf("%016x", ep.GraphHash())
		}
		return writeJSON(w, http.StatusOK, resp)
	}
	node, err := s.nodeParam(query, "node")
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	d, next := ls.Route(node)
	resp := nodeLabelsResponse{
		Epoch: ep.Seq, Node: node, Degree: ep.Topo.Degree(node),
		RouteDist: -1, RouteNext: int(next), MIS: ls.InMIS(node),
	}
	if !math.IsInf(d, 1) {
		resp.RouteDist = d
	}
	if ls.HasBackbone() {
		in := ls.InCDS(node)
		resp.CDS = &in
	}
	return writeJSON(w, http.StatusOK, resp)
}

type mutateRequest struct {
	Ops []Mutation `json:"ops"`
}

type mutateResponse struct {
	Accepted int `json:"accepted"`
	Queued   int `json:"queued"`
}

// maxOpBytes is the body budget per queueable op: a compact op such as
// {"op":"remove","u":1048575,"v":1048575} is under 50 bytes, and the rest
// is room for whitespace.
const maxOpBytes = 128

// handleMutate validates and enqueues a mutation batch for the writer. The
// enqueue is non-blocking: a full queue sheds the remainder with 429 (the
// response reports how many ops were accepted before the queue filled). A
// post with more ops than the queue plus the writer's batch in hand can
// hold, or a body larger than that many ops can take, could never be
// accepted whole; it is refused with 413 before anything is enqueued. Once
// the writer has stopped nothing would apply a post, so it is refused with
// 503 and the writer's reason.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "mutate requires POST")
	}
	if err := s.writerStopped(); err != nil {
		return writeError(w, http.StatusServiceUnavailable, "writer stopped: "+err.Error())
	}
	maxOps := s.cfg.QueueDepth + s.cfg.BatchMax
	r.Body = http.MaxBytesReader(w, r.Body, int64(maxOps+1)*maxOpBytes)
	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body over %d bytes", tooLarge.Limit))
		}
		return writeError(w, http.StatusBadRequest, "malformed body: "+err.Error())
	}
	if len(req.Ops) == 0 {
		return writeError(w, http.StatusBadRequest, "empty ops")
	}
	if len(req.Ops) > maxOps {
		return writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d ops exceed the %d the mutation queue and writer can hold", len(req.Ops), maxOps))
	}
	for _, m := range req.Ops {
		if m.Op != "add" && m.Op != "remove" {
			return writeError(w, http.StatusBadRequest,
				fmt.Sprintf("op %q must be \"add\" or \"remove\"", m.Op))
		}
		if m.U < 0 || m.U >= s.n || m.V < 0 || m.V >= s.n || m.U == m.V {
			return writeError(w, http.StatusBadRequest,
				fmt.Sprintf("edge (%d,%d) out of range or self-loop", m.U, m.V))
		}
	}
	accepted := 0
	for _, m := range req.Ops {
		select {
		case s.mutCh <- m:
			s.accepted.Add(1)
			accepted++
		default:
			return writeJSON(w, http.StatusTooManyRequests, mutateResponse{
				Accepted: accepted, Queued: len(s.mutCh),
			})
		}
	}
	return writeJSON(w, http.StatusAccepted, mutateResponse{
		Accepted: accepted, Queued: len(s.mutCh),
	})
}

// MetricsSnapshot is the /metrics response.
type MetricsSnapshot struct {
	Epoch           uint64                      `json:"epoch"`
	EpochAgeNs      int64                       `json:"epoch_age_ns"`
	QueueDepth      int                         `json:"queue_depth"`
	Accepted        uint64                      `json:"accepted"`
	Applied         uint64                      `json:"applied"`
	Batches         uint64                      `json:"batches"`
	AbortedBatches  uint64                      `json:"aborted_batches"`
	Repairs         uint64                      `json:"repairs"`
	Escalations     uint64                      `json:"escalations"`
	RepairRounds    uint64                      `json:"repair_rounds"`
	RecomputeRounds uint64                      `json:"recompute_rounds"`
	Standing        uint64                      `json:"standing"`
	WAL             *WALSnapshot                `json:"wal,omitempty"`
	Endpoints       map[string]EndpointSnapshot `json:"endpoints"`
}

// WALSnapshot is the durability block of /metrics, present only when the
// server journals to a write-ahead log.
type WALSnapshot struct {
	Seq         uint64 `json:"seq"`          // last committed batch sequence
	Records     uint64 `json:"records"`      // cumulative mutation records (incl. compacted history)
	Batches     uint64 `json:"batches"`      // batches journaled by this process
	Syncs       uint64 `json:"syncs"`        // fsyncs issued on the append path
	Compactions uint64 `json:"compactions"`  // snapshot+truncate cycles
	Depth       uint64 `json:"depth"`        // records in the live log suffix
	FsyncAvgNs  int64  `json:"fsync_avg_ns"` // mean fsync latency, 0 when none yet
	FsyncMaxNs  int64  `json:"fsync_max_ns"`
	Failed      uint64 `json:"failed"` // batches aborted by journaling errors

	Gen          uint64 `json:"gen"`           // live log generation
	Fence        uint64 `json:"fence"`         // fencing token this store was opened with
	DurableBytes int64  `json:"durable_bytes"` // fsynced byte length of the live generation
	LabelSeq     uint64 `json:"label_seq"`     // batch seq of the last durable label epoch
	LabelRecords uint64 `json:"label_records"` // label-delta records appended by this process

	// Recovery report of the Open that seeded this process, when it was a
	// restart rather than a fresh store.
	RecoveredSeq      uint64 `json:"recovered_seq,omitempty"`
	RecoveredBatches  int    `json:"recovered_batches,omitempty"`
	RecoveredRecords  int    `json:"recovered_records,omitempty"`
	RecoveryTruncated bool   `json:"recovery_truncated,omitempty"`
	RecoveryReason    string `json:"recovery_reason,omitempty"`
	RecoveryStanding  uint64 `json:"recovery_standing"`

	// Startup cost: RecoveryNs is what wal.Open spent replaying durable
	// state, ReadyNs spans recovery through the first published epoch.
	// WarmStart reports whether the engines were seeded from a durable label
	// epoch (healing DirtyHealed nodes) instead of recomputed from scratch.
	RecoveryNs  int64  `json:"recovery_ns,omitempty"`
	ReadyNs     int64  `json:"ready_ns,omitempty"`
	LabelNs     int64  `json:"label_ns,omitempty"`
	WarmStart   bool   `json:"warm_start,omitempty"`
	DirtyHealed uint64 `json:"dirty_healed,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	ep := s.epoch.Load()
	snap := MetricsSnapshot{
		Epoch:           ep.Seq,
		EpochAgeNs:      time.Since(ep.Created).Nanoseconds(),
		QueueDepth:      len(s.mutCh),
		Accepted:        s.accepted.Load(),
		Applied:         s.applied.Load(),
		Batches:         s.met.batches.Load(),
		AbortedBatches:  s.met.abortedBatches.Load(),
		Repairs:         s.met.repairs.Load(),
		Escalations:     s.met.escalations.Load(),
		RepairRounds:    s.met.repairRounds.Load(),
		RecomputeRounds: s.met.recomputeRounds.Load(),
		Standing:        s.met.standing.Load(),
		Endpoints:       make(map[string]EndpointSnapshot, len(s.met.endpoints)),
	}
	if s.cfg.WAL != nil {
		m := s.cfg.WAL.Metrics()
		ws := &WALSnapshot{
			Seq: m.Seq, Records: m.Records, Batches: m.Batches,
			Syncs: m.Syncs, Compactions: m.Compactions, Depth: m.Depth,
			FsyncMaxNs:       m.FsyncMax.Nanoseconds(),
			Failed:           s.met.walFailed.Load(),
			Gen:              m.Gen,
			Fence:            m.Fence,
			DurableBytes:     m.DurableBytes,
			LabelSeq:         m.LabelSeq,
			LabelRecords:     m.LabelRecords,
			RecoveryStanding: s.met.recoveryStanding.Load(),
			ReadyNs:          s.met.readyNs.Load(),
			LabelNs:          s.met.labelNs.Load(),
			WarmStart:        s.met.warmStart.Load() != 0,
			DirtyHealed:      s.met.dirtyHealed.Load(),
		}
		if m.Syncs > 0 {
			ws.FsyncAvgNs = m.FsyncTotal.Nanoseconds() / int64(m.Syncs)
		}
		if rec := s.cfg.Recovered; rec != nil {
			ws.RecoveredSeq = rec.Seq
			ws.RecoveredBatches = rec.Batches
			ws.RecoveredRecords = rec.Replayed
			ws.RecoveryTruncated = rec.Truncated()
			ws.RecoveryReason = rec.Reason
			ws.RecoveryNs = rec.RecoveryNs
		}
		snap.WAL = ws
	}
	for name, est := range s.met.endpoints {
		snap.Endpoints[name] = est.snapshot()
	}
	return writeJSON(w, http.StatusOK, snap)
}

// handleHealthz answers 200 while the writer runs, and 503 with the reason
// once it has stopped: the server still reads, but accepts no writes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	if err := s.writerStopped(); err != nil {
		return writeError(w, http.StatusServiceUnavailable, "writer stopped: "+err.Error())
	}
	ep := s.epoch.Load()
	return writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}{"ok", ep.Seq})
}
