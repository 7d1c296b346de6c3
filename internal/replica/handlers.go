package replica

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"structura/internal/wal"
)

// staleWarning is attached to every degraded read, per RFC 7234 §5.5.1:
// the response is served from a replica's applied view, which may lag the
// primary by the replication delay.
const staleWarning = `110 structura-replica "stale-ok: served from replica, may lag primary"`

// Stats is the replica's /metrics block.
type Stats struct {
	Connected bool `json:"connected"`
	Deposed   bool `json:"deposed"`
	Promoted  bool `json:"promoted"`

	Gen          uint64 `json:"gen"`
	Fence        uint64 `json:"fence"`
	MirroredOff  int64  `json:"mirrored_bytes"` // durable mirrored byte offset
	AckedOff     int64  `json:"acked_bytes"`    // last ack sent
	AppliedSeq   uint64 `json:"applied_seq"`    // last committed batch in the view
	PrimarySeq   uint64 `json:"primary_seq"`    // last seq the primary reported
	SeqLag       uint64 `json:"seq_lag"`
	DirtyPending int    `json:"dirty_pending"` // nodes a promotion would heal

	Connects uint64 `json:"connects"`
	Resyncs  uint64 `json:"resyncs"`
	ChunksIn uint64 `json:"chunks_in"`
	BytesIn  uint64 `json:"bytes_in"`

	// StalenessNs is the age of the applied view: time since the last
	// applied commit, or since the last primary contact when no commit has
	// been applied yet. -1 when the replica has never heard from a primary.
	StalenessNs      int64 `json:"staleness_ns"`
	LastContactAgeNs int64 `json:"last_contact_age_ns"` // -1 before first contact
}

// Snapshot assembles the current Stats.
func (r *Replica) SnapshotStats() Stats {
	r.mu.RLock()
	gen, fence, off := r.mirror.State()
	var appliedSeq uint64
	dirty := 0
	if v := r.mirror.View(); v != nil {
		appliedSeq = v.Seq
		dirty = len(v.Dirty())
	}
	r.mu.RUnlock()

	st := Stats{
		Connected: r.connected.Load(),
		Deposed:   r.deposed.Load(),
		Promoted:  r.promoted.Load(),
		Gen:       gen, Fence: fence, MirroredOff: off,
		AckedOff:     r.ackedOff.Load(),
		AppliedSeq:   appliedSeq,
		PrimarySeq:   r.primarySeq.Load(),
		DirtyPending: dirty,
		Connects:     r.connects.Load(),
		Resyncs:      r.resyncs.Load(),
		ChunksIn:     r.chunksIn.Load(),
		BytesIn:      r.bytesIn.Load(),
	}
	if st.PrimarySeq > st.AppliedSeq {
		st.SeqLag = st.PrimarySeq - st.AppliedSeq
	}
	now := time.Now().UnixNano()
	st.StalenessNs, st.LastContactAgeNs = -1, -1
	if t := r.lastContactNs.Load(); t > 0 {
		st.LastContactAgeNs = now - t
		st.StalenessNs = now - t
	}
	if t := r.lastCommitNs.Load(); t > 0 {
		st.StalenessNs = now - t
	}
	return st
}

// Handler returns the replica's HTTP surface. Before promotion it serves
// degraded stale-ok reads (every data response carries a Warning header and
// X-Staleness-Ns); after promotion it transparently delegates to the
// promoted server's full endpoint set.
func (r *Replica) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", r.degraded(r.handleRoute))
	mux.HandleFunc("/labels", r.degraded(r.handleLabels))
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/promote", r.handlePromote)
	// Everything else (e.g. /mutate, /khop) only exists after promotion, when
	// the full server surface takes over.
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if srv := r.promotedSrv.Load(); srv != nil {
			srv.Handler().ServeHTTP(w, req)
			return
		}
		writeError(w, http.StatusNotFound,
			"replica serves /route /labels /metrics /healthz /promote; promote it to unlock the full surface")
	})
	return mux
}

// degraded wraps a stale-ok read: after promotion the promoted server
// answers authoritatively; before it, the wrapper stamps the staleness
// headers and rejects reads when no view exists yet.
func (r *Replica) degraded(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if srv := r.promotedSrv.Load(); srv != nil {
			srv.Handler().ServeHTTP(w, req)
			return
		}
		st := r.SnapshotStats()
		w.Header().Set("Warning", staleWarning)
		w.Header().Set("X-Staleness-Ns", strconv.FormatInt(st.StalenessNs, 10))
		fn(w, req)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

type routeResponse struct {
	AppliedSeq uint64  `json:"applied_seq"`
	From       int     `json:"from"`
	Dest       int     `json:"dest"`
	Dist       float64 `json:"dist"` // hop count, -1 when unreachable
	Path       []int   `json:"path,omitempty"`
	Stale      bool    `json:"stale"`
}

// handleRoute walks the replicated next-hop labels. The labels may lag the
// replicated topology (they are journaled after each batch), so every step
// is validated against the applied graph; a chain the lag has broken is a
// 503 — the honest degraded answer — rather than a wrong path.
func (r *Replica) handleRoute(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a := r.mirror.View()
	if a == nil || !a.UsableLabels() {
		writeError(w, http.StatusServiceUnavailable, "no replicated label view yet")
		return
	}
	raw := req.URL.Query().Get("from")
	from, err := strconv.Atoi(raw)
	if err != nil || from < 0 || from >= a.G.N() {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("from %q out of range [0,%d)", raw, a.G.N()))
		return
	}
	ls := a.Labels
	resp := routeResponse{AppliedSeq: a.Seq, From: from, Dest: ls.Dest, Dist: -1, Stale: true}
	if d := ls.Dist[from]; !math.IsInf(d, 1) {
		resp.Dist = d
		path := []int{from}
		for v := from; v != ls.Dest; {
			nx := int(ls.Next[v])
			if nx < 0 || nx >= a.G.N() || !a.G.HasEdge(v, nx) || len(path) > a.G.N() {
				writeError(w, http.StatusServiceUnavailable,
					"replicated next-hop chain broken by label lag, retry or promote")
				return
			}
			path = append(path, nx)
			v = nx
		}
		resp.Path = path
	}
	writeJSON(w, http.StatusOK, resp)
}

type labelsSummary struct {
	AppliedSeq uint64 `json:"applied_seq"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	LabelSeq   uint64 `json:"label_seq"`
	Stale      bool   `json:"stale"`
	GraphHash  string `json:"graph_hash,omitempty"` // only with ?hash=1
}

func (r *Replica) handleLabels(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a := r.mirror.View()
	if a == nil {
		writeError(w, http.StatusServiceUnavailable, "no replicated view yet")
		return
	}
	sum := labelsSummary{AppliedSeq: a.Seq, Nodes: a.G.N(), Edges: a.G.M(), Stale: true}
	if a.Labels != nil {
		sum.LabelSeq = a.Labels.Seq
	}
	if req.URL.Query().Get("hash") != "" {
		sum.GraphHash = fmt.Sprintf("%016x", wal.GraphHash(a.G))
	}
	writeJSON(w, http.StatusOK, sum)
}

func (r *Replica) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if srv := r.promotedSrv.Load(); srv != nil {
		srv.Handler().ServeHTTP(w, req)
		return
	}
	writeJSON(w, http.StatusOK, r.SnapshotStats())
}

func (r *Replica) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if srv := r.promotedSrv.Load(); srv != nil {
		srv.Handler().ServeHTTP(w, req)
		return
	}
	role := "replica"
	if r.deposed.Load() {
		role = "replica-orphaned"
	}
	seq, _ := r.Applied()
	writeJSON(w, http.StatusOK, struct {
		Status     string `json:"status"`
		Role       string `json:"role"`
		AppliedSeq uint64 `json:"applied_seq"`
	}{"ok", role, seq})
}

var promoteMu sync.Mutex

// handlePromote (POST) performs failover in-process: the follow loop stops,
// the mirrored store is recovered under a bumped fence, and all subsequent
// requests are served by the promoted primary.
func (r *Replica) handlePromote(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "promote requires POST")
		return
	}
	promoteMu.Lock()
	defer promoteMu.Unlock()
	if r.promoted.Load() {
		writeError(w, http.StatusConflict, ErrPromoted.Error())
		return
	}
	srv, l, rec, err := r.Promote()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	_ = srv
	m := l.Metrics()
	writeJSON(w, http.StatusOK, struct {
		Promoted bool   `json:"promoted"`
		Seq      uint64 `json:"seq"`
		Gen      uint64 `json:"gen"`
		Fence    uint64 `json:"fence"`
		Dirty    int    `json:"dirty_healed"`
	}{true, rec.Seq, m.Gen, m.Fence, len(rec.Dirty)})
}
