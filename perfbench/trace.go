package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"structura/internal/centrality"
	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/server"
	"structura/internal/sim"
	"structura/internal/wal"
)

// The traced run replays a workload's inputs in-process through each layer's
// public calls, in the order server.New and the server's batch writer make
// them, and times every call as a span. Spans come from this file only;
// tracing inside the program is a separate change.

const (
	traceReads   = 20000 // read-mix requests through Handler().ServeHTTP
	traceMutates = 10    // 100-op /mutate bodies through ServeHTTP
	traceBatches = 70    // writer epochs replayed at the served size: two compactions and a tail
	traceRepeat  = 3     // repeats of each one-off call (clone, create, New, Open)
	batchMax     = 256   // serve's default -batch-max
)

// nullWriter discards a response and keeps its status.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 1)
	}
	return w.h
}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }

// parseRequest turns a pre-encoded request into the *http.Request the
// server's handler receives.
func parseRequest(wire []byte) (*http.Request, error) {
	return http.ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
}

type replay struct {
	cfg config
	t   *tracer
	lm  map[string]float64
	dir string
	g   *graph.Graph
}

// runTrace drives the workload once over sockets against a server started
// with GODEBUG=gctrace=1 (for GC rate, writer epochs and the read and
// visibility figures the derived metrics subtract from), then replays its
// inputs in-process and reports every per-layer metric.
func runTrace(cfg config) (*result, error) {
	pass := cfg
	pass.launches, pass.restarts = 1, 0
	res, err := runE2E(pass, []string{"GODEBUG=gctrace=1"})
	if err != nil {
		return nil, fmt.Errorf("socket pass: %w", err)
	}
	r := &replay{cfg: cfg, t: newTracer(cfg.workload.name), lm: map[string]float64{}}
	r.dir = filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d-%d", cfg.workload.name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	r.g = topology(cfg.seed, cfg.nodes)

	r.lm["server.gc_per_s"] = res.diag["gc_per_s"]
	r.lm["writer.ops_per_epoch"] = res.diag["ops_per_epoch"]
	r.lm["writer.epochs_per_s"] = res.diag["epochs_per_s"]
	for _, step := range []func() error{r.graphLayer, r.buildLayer, r.serverLayer, r.writerLayer, r.scaleLayer} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r.lm["server.socket_us"] = res.readP50Us - r.mixWeightedHandlerUs()
	r.lm["writer.unexplained_ms"] = res.visibleP50Ms - r.lm["writer.stage_sum_ms"]

	selfTimes(r.t.spans)
	path := filepath.Join(filepath.Dir(cfg.work), "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	if err := writeSpans(path, r.t.spans); err != nil {
		return nil, err
	}
	res.meta["spans_file"] = path
	res.diag["spans"] = float64(len(r.t.spans))
	res.socketPass = res.metrics
	res.metrics = r.lm
	return res, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *replay) p50(name string, unit time.Duration) float64 {
	return median(durations(r.t.spans, name, unit))
}

// graphLayer times Graph.Clone and measures the heap one topology copy holds.
func (r *replay) graphLayer() error {
	for i := 0; i < traceRepeat; i++ {
		r.t.timed("graph.clone", -1, func() { _ = r.g.Clone() })
	}
	r.lm["graph.clone_ms"] = r.p50("graph.clone", time.Millisecond)
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	c := r.g.Clone()
	runtime.GC()
	runtime.ReadMemStats(&b)
	runtime.KeepAlive(c)
	r.lm["graph.copy_mb"] = float64(int64(b.HeapAlloc)-int64(a.HeapAlloc)) / (1 << 20)
	return nil
}

// buildLayer times the calls a cold server.New is made of.
func (r *replay) buildLayer() error {
	for i := 0; i < traceRepeat; i++ {
		var l *wal.Log
		var err error
		dir := filepath.Join(r.dir, fmt.Sprintf("create-%d", i))
		r.t.timed("wal.create", -1, func() { l, err = wal.Create(dir, r.g, wal.Options{}) })
		if err != nil {
			return fmt.Errorf("wal.Create: %w", err)
		}
		if err := l.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		dvG, misG := r.g.Clone(), r.g.Clone()
		r.t.timed("heal.distvec_build", -1, func() { _, err = heal.NewDistVecEngineOver(dvG, dest) })
		if err != nil {
			return err
		}
		r.t.timed("heal.mis_build", -1, func() { _, err = heal.NewMISEngineOver(misG) })
		if err != nil {
			return err
		}
	}
	r.lm["wal.create_ms"] = r.p50("wal.create", time.Millisecond)
	r.lm["heal.distvec_build_ms"] = r.p50("heal.distvec_build", time.Millisecond)
	r.lm["heal.mis_build_ms"] = r.p50("heal.mis_build", time.Millisecond)
	return nil
}

// serverLayer times server.New on a fresh store, the read mix and /mutate
// through Handler().ServeHTTP with no socket.
func (r *replay) serverLayer() error {
	var srv *server.Server
	var l *wal.Log
	for i := 0; i < traceRepeat; i++ {
		if srv != nil {
			if err := stopServer(srv, l); err != nil {
				return err
			}
		}
		var err error
		if l, err = wal.Create(filepath.Join(r.dir, fmt.Sprintf("cold-%d", i)), r.g, wal.Options{}); err != nil {
			return err
		}
		r.t.timed("server.new_cold", -1, func() {
			srv, err = server.New(r.g, server.Config{SkipCDS: true, WAL: l})
		})
		if err != nil {
			return fmt.Errorf("server.New: %w", err)
		}
	}
	r.lm["server.new_cold_ms"] = r.p50("server.new_cold", time.Millisecond)

	h := srv.Handler()
	reqs := make([]*http.Request, 0, traceReads)
	kinds := make([]uint8, 0, traceReads)
	for wid := 0; len(reqs) < traceReads; wid++ {
		for _, rq := range mixRing(uint64(r.cfg.seed), wid, min(ringSize, traceReads-len(reqs)), r.cfg.nodes) {
			hr, err := parseRequest(rq.wire)
			if err != nil {
				return err
			}
			reqs = append(reqs, hr)
			kinds = append(kinds, rq.kind)
		}
	}
	spanNames := [numKinds]string{}
	for k, n := range kindNames {
		spanNames[k] = "server.handler." + n
	}
	r.t.spans = append(make([]span, 0, len(r.t.spans)+traceReads+4096), r.t.spans...)
	w := &nullWriter{}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i, hr := range reqs {
		w.status = 200
		s := r.t.begin(spanNames[kinds[i]], -1)
		h.ServeHTTP(w, hr)
		r.t.end(s)
		if w.status != 200 {
			return fmt.Errorf("in-process %s answered %d", hr.URL, w.status)
		}
	}
	runtime.ReadMemStats(&b)
	r.lm["server.read_alloc_b"] = float64(b.TotalAlloc-a.TotalAlloc) / float64(len(reqs))
	for k, n := range kindNames {
		r.lm["server."+n+"_us"] = r.p50(spanNames[k], time.Microsecond)
	}

	c := newChurn(r.cfg.seed, r.g.Clone(), churnRemoves*4)
	for i := 0; i < traceMutates; i++ {
		p := c.next(churnAdds, churnRemoves)
		hr, err := parseRequest(p.wire)
		if err != nil {
			return err
		}
		w.status = 0
		r.t.timed("server.mutate", -1, func() { h.ServeHTTP(w, hr) })
		if w.status != http.StatusAccepted {
			return fmt.Errorf("in-process /mutate answered %d", w.status)
		}
		for !srv.Quiesced() {
			time.Sleep(100 * time.Microsecond)
		}
		c.visible(p)
	}
	r.lm["server.mutate_us"] = r.p50("server.mutate", time.Microsecond)
	return stopServer(srv, l)
}

func stopServer(srv *server.Server, l *wal.Log) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return l.Close()
}

// mixWeightedHandlerUs is the in-process handler p50 weighted by the read
// mix: route 40%, labels 35%, khop 15%, top-k 10%.
func (r *replay) mixWeightedHandlerUs() float64 {
	return 0.40*r.lm["server.route_us"] + 0.35*r.lm["server.labels_us"] +
		0.15*r.lm["server.khop_us"] + 0.10*r.lm["server.topk_us"]
}

// engines is the writer-owned state the replay drives: the serving layer's
// distance-vector and MIS supervisors and its write-ahead log.
type engines struct {
	dv, mis   *heal.Supervisor
	route     interface{ RouteLabels() ([]float64, []int) }
	misLabels interface{ MISLabels() []bool }
}

func newEngines(dv, mis heal.Engine) *engines {
	return &engines{
		dv:        &heal.Supervisor{Engine: dv},
		mis:       &heal.Supervisor{Engine: mis},
		route:     dv.(interface{ RouteLabels() ([]float64, []int) }),
		misLabels: mis.(interface{ MISLabels() []bool }),
	}
}

// labelSet is what the writer journals per epoch (Server.labelSet).
func (e *engines) labelSet() *wal.LabelSet {
	dist, next := e.route.RouteLabels()
	n32 := make([]int32, len(next))
	for i, v := range next {
		n32[i] = int32(v)
	}
	return &wal.LabelSet{Dest: dest, Dist: dist, Next: n32, MIS: e.misLabels.MISLabels()}
}

// workloadBatches is the replay's input: the workload's posts from the same
// seeded stream (read-mix replays its quiet-phase posts), cut into the
// epochs the writer drains. Posts sent on a schedule or one at a time reach
// an idle writer, which drains each alone; ingest keeps the queue full, so
// its writer drains batchMax ops at a time. The posts are applied to mirror.
func (r *replay) workloadBatches(mirror *graph.Graph, count int) [][]server.Mutation {
	adds, removes := r.cfg.workload.adds, r.cfg.workload.removes
	if adds == 0 {
		adds, removes = churnAdds, churnRemoves
	}
	backlog := r.cfg.workload.outstanding > 1
	c := newChurn(r.cfg.seed, mirror, removes*4)
	var out [][]server.Mutation
	var queue []server.Mutation
	for len(out) < count {
		p := c.next(adds, removes)
		c.visible(p)
		queue = append(queue, p.ops...)
		for len(out) < count && (len(queue) >= batchMax || !backlog && len(queue) > 0) {
			n := min(batchMax, len(queue))
			out = append(out, queue[:n:n])
			queue = queue[n:]
		}
	}
	return out
}

// undo reverts batches that were applied to g, newest op first. It is
// exact for write-churn posts, whose every op was accepted and each of which
// is one whole batch.
func undo(g *graph.Graph, batches [][]server.Mutation) {
	for i := len(batches) - 1; i >= 0; i-- {
		for j := len(batches[i]) - 1; j >= 0; j-- {
			m := batches[i][j]
			if m.Op == "add" {
				g.RemoveEdge(m.U, m.V)
			} else {
				_ = g.AddEdge(m.U, m.V)
			}
		}
	}
}

func toEvents(batch []server.Mutation) ([]wal.Record, []sim.Event) {
	recs := make([]wal.Record, 0, len(batch))
	events := make([]sim.Event, 0, len(batch))
	for _, m := range batch {
		t, op := wal.TAddEdge, sim.OpAddEdge
		if m.Op == "remove" {
			t, op = wal.TRemoveEdge, sim.OpRemoveEdge
		}
		recs = append(recs, wal.Record{Type: t, U: int32(m.U), V: int32(m.V), Weight: 1})
		events = append(events, sim.Event{Round: 1, Op: op, U: m.U, V: m.V})
	}
	return recs, events
}

// selfWchar is the bytes this process has passed to write(2).
func selfWchar() int64 {
	v, _ := procField("/proc/self/io", "wchar")
	return v
}

// writerLayer replays the workload's batches through the calls one epoch
// of the server's writer makes: WAL append, heal per engine, label copy and
// journal, then the epoch build (freeze, label copies, degree ranking).
// The replay log compacts every ingestCompactEvery batches on every
// workload, so each traced run times compaction.
func (r *replay) writerLayer() error {
	l, err := wal.Create(filepath.Join(r.dir, "writer"), r.g, wal.Options{CompactEvery: ingestCompactEvery})
	if err != nil {
		return err
	}
	dvEng, err := heal.NewDistVecEngineOver(r.g.Clone(), dest)
	if err != nil {
		return err
	}
	misEng, err := heal.NewMISEngineOver(r.g.Clone())
	if err != nil {
		return err
	}
	e := newEngines(dvEng, misEng)
	if _, err := l.AppendLabels(e.labelSet()); err != nil {
		return err
	}
	input := r.workloadBatches(r.g.Clone(), traceBatches)

	var ops, bytesWritten int64
	var detections, escalations int
	var freezeAlloc []float64
	var stageSums []float64
	var a, b, fa, fb runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, batch := range input {
		ep := r.t.begin("writer.epoch", -1)
		recs, events := toEvents(batch)
		w0 := selfWchar()
		c0 := l.Metrics().Compactions
		ap := r.t.begin("wal.append", ep)
		_, err := l.Append(recs)
		r.t.end(ap)
		if err != nil {
			return err
		}
		if l.Metrics().Compactions != c0 {
			r.t.spans[ap].Name = "wal.compact"
		}
		bytesWritten += selfWchar() - w0
		for _, sup := range []struct {
			name string
			s    *heal.Supervisor
		}{{"heal.distvec_apply", e.dv}, {"heal.mis_apply", e.mis}} {
			var rep *heal.Report
			r.t.timed(sup.name, ep, func() { rep, err = sup.s.ApplyBatch(events) })
			if err != nil {
				return err
			}
			if len(rep.Detections) > 0 {
				detections++
			}
			escalations += rep.Escalations
		}
		var ls *wal.LabelSet
		r.t.timed("heal.label_copy", ep, func() { ls = e.labelSet() })
		w0 = selfWchar()
		r.t.timed("wal.append_labels", ep, func() { _, err = l.AppendLabels(ls) })
		if err != nil {
			return err
		}
		bytesWritten += selfWchar() - w0
		ops += int64(len(batch))

		var csr *graph.CSR
		runtime.ReadMemStats(&fa)
		r.t.timed("graph.freeze", ep, func() { csr = dvEng.Live().Freeze() })
		runtime.ReadMemStats(&fb)
		freezeAlloc = append(freezeAlloc, float64(fb.TotalAlloc-fa.TotalAlloc)/(1<<20))
		r.t.timed("heal.label_copy", ep, func() {
			_, _ = e.route.RouteLabels()
			_ = e.misLabels.MISLabels()
		})
		var deg []float64
		r.t.timed("server.epoch_fields", ep, func() { deg, _, _ = epochFields(csr, ls) })
		r.t.timed("centrality.ranking", ep, func() { _ = centrality.Ranking(deg) })
		r.t.end(ep)
		sum := time.Duration(0)
		for _, s := range r.t.spans[ep+1:] {
			sum += s.End - s.Start
		}
		stageSums = append(stageSums, float64(sum)/1e6)
	}
	runtime.ReadMemStats(&b)
	m := l.Metrics()
	r.lm["writer.alloc_mb_per_epoch"] = float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20) / float64(len(input))
	r.lm["writer.stage_sum_ms"] = median(stageSums)
	r.lm["graph.freeze_alloc_mb"] = median(freezeAlloc)
	r.lm["wal.append_us"] = r.p50("wal.append", time.Microsecond)
	r.lm["wal.compact_ms"] = r.p50("wal.compact", time.Millisecond)
	r.lm["wal.append_labels_us"] = r.p50("wal.append_labels", time.Microsecond)
	if m.Syncs > 0 {
		r.lm["wal.fsync_us"] = float64(m.FsyncTotal.Microseconds()) / float64(m.Syncs)
	}
	r.lm["wal.bytes_per_op"] = float64(bytesWritten) / float64(ops)
	r.lm["heal.distvec_apply_us"] = r.p50("heal.distvec_apply", time.Microsecond)
	r.lm["heal.mis_apply_us"] = r.p50("heal.mis_apply", time.Microsecond)
	r.lm["heal.label_copy_us"] = r.p50("heal.label_copy", time.Microsecond)
	r.lm["graph.freeze_ms"] = r.p50("graph.freeze", time.Millisecond)
	r.lm["centrality.ranking_ms"] = r.p50("centrality.ranking", time.Millisecond)
	r.lm["heal.escalation_frac"] = 0
	if detections > 0 {
		r.lm["heal.escalation_frac"] = float64(escalations) / float64(detections)
	}
	if err := l.Close(); err != nil {
		return err
	}
	return r.recoveryLayer(filepath.Join(r.dir, "writer"))
}

// epochFields is the rest of the epoch build: MIS size, unreachable count
// and the degree scores the ranking sorts.
func epochFields(csr *graph.CSR, ls *wal.LabelSet) (deg []float64, misSize, unreachable int) {
	for _, in := range ls.MIS {
		if in {
			misSize++
		}
	}
	for _, d := range ls.Dist {
		if math.IsInf(d, 1) {
			unreachable++
		}
	}
	deg = make([]float64, csr.N())
	for v := range deg {
		deg[v] = float64(csr.Degree(v))
	}
	return deg, misSize, unreachable
}

// recoveryLayer opens copies of the replay's final store: wal.Open, the
// engines' warm start from the recovered label epoch, and a warm server.New.
func (r *replay) recoveryLayer(store string) error {
	var replayed []float64
	for i := 0; i < traceRepeat; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("open-%d", i))
		if err := copyDir(store, dir); err != nil {
			return err
		}
		var l *wal.Log
		var rec wal.Recovery
		var err error
		r.t.timed("wal.open", -1, func() { l, rec, err = wal.Open(dir, wal.Options{}) })
		if err != nil {
			return fmt.Errorf("wal.Open: %w", err)
		}
		replayed = append(replayed, float64(rec.Replayed))
		if rec.Labels == nil {
			return errors.New("recovered store carries no label epoch")
		}
		dvG, misG := l.Graph().Clone(), l.Graph().Clone()
		next := make([]int, len(rec.Labels.Next))
		for j, v := range rec.Labels.Next {
			next[j] = int(v)
		}
		r.t.timed("heal.warm_start", -1, func() {
			var dv, mis heal.Engine
			if dv, err = heal.NewDistVecEngineFromLabels(dvG, dest, rec.Labels.Dist, next); err != nil {
				return
			}
			if mis, err = heal.NewMISEngineFromLabels(misG, rec.Labels.MIS); err != nil {
				return
			}
			for _, eng := range []heal.Engine{dv, mis} {
				if _, err = (&heal.Supervisor{Engine: eng}).HealDirty(rec.Dirty); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		var srv *server.Server
		r.t.timed("server.new_warm", -1, func() {
			srv, err = server.New(l.Graph(), server.Config{SkipCDS: true, WAL: l, Recovered: &rec})
		})
		if err != nil {
			return err
		}
		if err := stopServer(srv, l); err != nil {
			return err
		}
	}
	r.lm["wal.open_ms"] = r.p50("wal.open", time.Millisecond)
	r.lm["wal.replayed_records"] = median(replayed)
	r.lm["heal.warm_start_ms"] = r.p50("heal.warm_start", time.Millisecond)
	r.lm["server.new_warm_ms"] = r.p50("server.new_warm", time.Millisecond)
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// scaleLayer replays write-churn batches at 10k and 1M nodes through the
// publish-path calls whose cost may follow n rather than the batch: the
// distance-vector heal, the label copy and journal, the freeze and the
// ranking. To keep the 1M-node replay's memory down, the heap is collected
// between epochs, outside the spans.
func (r *replay) scaleLayer() error {
	for _, sc := range scales {
		n := sc.nodes
		freeMemory()
		g := topology(r.cfg.seed, n).Clone() // Clone packs the adjacency rows
		freeMemory()
		rs := &replay{cfg: r.cfg}
		rs.cfg.workload, _ = findWorkload("write-churn")
		// The posts are drawn on g itself and undone: a second copy of a
		// 1M-node graph is what the replay's memory cannot spare.
		input := rs.workloadBatches(g, sc.batches)
		undo(g, input)
		freeMemory()
		dvEng, err := heal.NewDistVecEngineOver(g, dest)
		if err != nil {
			return err
		}
		// The MIS engine is never fed events here, so its labels only need
		// the right length for the copy and journal to cost what they do;
		// building the real set would hold another 1M-node graph copy.
		misEng, err := heal.NewMISEngineFromLabels(g, make([]bool, n))
		if err != nil {
			return err
		}
		// AppendLabels' cost depends on the label arrays alone, so the store
		// is seeded with an edgeless graph of n nodes.
		l, err := wal.Create(filepath.Join(r.dir, "scale"+sc.suffix), graph.New(n), wal.Options{CompactEvery: -1})
		if err != nil {
			return err
		}
		e := newEngines(dvEng, misEng)
		if _, err := l.AppendLabels(e.labelSet()); err != nil {
			return err
		}
		freeMemory()
		name := func(s string) string { return s + sc.suffix }
		for _, batch := range input {
			ep := r.t.begin(name("writer.epoch"), -1)
			_, events := toEvents(batch)
			r.t.timed(name("heal.distvec_apply"), ep, func() { _, err = e.dv.ApplyBatch(events) })
			if err != nil {
				return err
			}
			var ls *wal.LabelSet
			r.t.timed(name("heal.label_copy"), ep, func() { ls = e.labelSet() })
			r.t.timed(name("wal.append_labels"), ep, func() { _, err = l.AppendLabels(ls) })
			if err != nil {
				return err
			}
			var csr *graph.CSR
			r.t.timed(name("graph.freeze"), ep, func() { csr = dvEng.Live().Freeze() })
			var deg []float64
			r.t.timed(name("server.epoch_fields"), ep, func() { deg, _, _ = epochFields(csr, ls) })
			r.t.timed(name("centrality.ranking"), ep, func() { _ = centrality.Ranking(deg) })
			r.t.end(ep)
			csr, deg = nil, nil
			runtime.GC()
		}
		if err := l.Close(); err != nil {
			return err
		}
		for _, m := range scaleMetrics {
			unit := time.Millisecond
			if m.unit == "us" {
				unit = time.Microsecond
			}
			base := m.name[:len(m.name)-len("_"+m.unit)]
			r.lm[m.name+sc.suffix] = r.p50(base+sc.suffix, unit)
		}
		if err := os.RemoveAll(filepath.Join(r.dir, "scale"+sc.suffix)); err != nil {
			return err
		}
	}
	freeMemory()
	return nil
}

// freeMemory collects the heap and returns the freed pages to the OS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
