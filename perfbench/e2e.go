package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"structura/internal/graph"
	"structura/internal/stats"
	"structura/internal/wal"
)

// workload is one traffic mix against the same seeded store.
type workload struct {
	name string
	why  string

	reads bool // two closed-loop connections send the read mix in the window

	// Post shape: adds fresh edges plus up to removes removals of visible
	// ones. Zero adds: no mutations in the window.
	adds, removes int
	// rate > 0: open loop, posts/s sent on schedule. Otherwise closed loop
	// with outstanding posts in flight.
	rate        float64
	outstanding int

	compactEvery int // serve -compact-every; 0 keeps serve's default
	tailPosts    int // posts journaled before each kill -9 restart
	quietPosts   int // read-mix: posts sent one at a time after the restarts
}

// churnAdds/churnRemoves is the 100-op post of write-churn and of read-mix's
// quiet write phase.
const (
	churnAdds    = 50
	churnRemoves = 50
	churnRate    = 4 // posts/s: the writer stays ≈20% busy
	// ingestCompactEvery makes compaction complete several cycles per
	// window; serve's default of 1024 batches never fires within a run.
	ingestCompactEvery = 32
)

var workloads = []workload{
	{
		name:  "read-mix",
		why:   "LoadGen's read mix on 2 closed-loop raw sockets and no writes in the window: the read path alone; a later one-at-a-time write phase gives idle-writer freshness",
		reads: true, quietPosts: 150,
	},
	{
		name:  "write-churn",
		why:   "the read mix plus 4 open-loop posts/s of 100 ops: freshness is one epoch build, and reads share the cores with the writer",
		reads: true, adds: churnAdds, removes: churnRemoves, rate: churnRate, tailPosts: 8,
	},
	{
		name: "ingest",
		why:  "2 closed-loop posts of 512 ops in flight and no read mix: full 256-op batches, heal-heavy writer, compaction and long log tails",
		adds: 256, removes: 256, outstanding: 2, compactEvery: ingestCompactEvery, tailPosts: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run serves a 100k-node store, takes setup_s as the median of 7
// launches and restart_ready_s as the median of 6 restarts.
const (
	servedNodes      = 100_000
	setupLaunches    = 7
	measuredRestarts = 6
)

// config is one invocation's settings.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	nodes    int
	launches int // setup launches; setup_s is their median
	restarts int // kill -9 restarts; restart_ready_s is their median
	bin      string
	work     string
}

// probeEvery spaces the /khop probes that wait for a post to appear.
const probeEvery = time.Millisecond

// visibleTimeout fails a post that no probe sees within it.
const visibleTimeout = 30 * time.Second

// ringSize is the number of pre-encoded reads each connection cycles over.
const ringSize = 1 << 16

// sampleEvery: every sampleEvery-th read response is kept for the oracle.
const sampleEvery = 61

// result is everything one run reports.
type result struct {
	metrics map[string]float64 // end-to-end metrics (per-layer ones in a traced run)
	diag    map[string]float64 // diagnostics and run metadata, never gated
	meta    map[string]string
	ops     latencies // every operation attempted, for failed_frac
	errs    []string  // oracle mismatches: any one fails the run

	// Inputs the traced replay needs from the socket pass, and that pass's
	// end-to-end metrics once the replay's per-layer ones replace them.
	readP50Us, visibleP50Ms float64
	socketPass              map[string]float64
}

func (r *result) oracleErr(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// e2e drives one workload against the built binary. It returns an error
// only when the run could not be carried out; oracle mismatches and failed
// operations land in the result.
type e2e struct {
	cfg      config
	w        workload
	res      *result
	g0       *graph.Graph // the topology as booted
	churn    *churn
	dir      string
	snap     string
	srv      *child
	ctl      *rawConn
	env      []string
	restarts int // kill -9 restarts done so far

	gets  atomic.Int64 // GETs completed (read mix and probes)
	mu    sync.Mutex   // guards the fields below during a window
	reads latencies    // read-mix GETs
	vis   []float64    // visible latency of each post, ms
	late  []float64    // open loop: send time minus due time, ms
}

func newE2E(cfg config, env []string) (*e2e, error) {
	e := &e2e{cfg: cfg, w: cfg.workload, env: env, res: &result{
		metrics: map[string]float64{}, diag: map[string]float64{}, meta: map[string]string{},
	}}
	e.dir = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", e.w.name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	e.g0 = topology(cfg.seed, cfg.nodes)
	e.snap = filepath.Join(e.dir, "topology.snap")
	if err := wal.SaveGraph(e.snap, e.g0); err != nil {
		return nil, fmt.Errorf("save topology: %w", err)
	}
	pool := max(e.w.removes, churnRemoves) * 4
	e.churn = newChurn(cfg.seed, e.g0.Clone(), pool)
	return e, nil
}

func (e *e2e) close() {
	if e.ctl != nil {
		e.ctl.Close()
	}
	if e.srv != nil {
		e.srv.kill()
	}
	_ = os.RemoveAll(e.dir)
}

func (e *e2e) dataDir() string { return filepath.Join(e.dir, "data") }

func (e *e2e) serveArgs() []string {
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", e.dataDir()}
	if e.w.compactEvery > 0 {
		args = append(args, "-compact-every", strconv.Itoa(e.w.compactEvery))
	}
	return args
}

// setup launches serve -load on an empty data dir cfg.launches times and
// keeps the last process; setup_s is the median launch.
func (e *e2e) setup() error {
	var raw, adj []float64
	for i := 0; i < e.cfg.launches; i++ {
		if e.srv != nil {
			e.srv.kill()
			e.srv = nil
		}
		if err := os.RemoveAll(e.dataDir()); err != nil {
			return err
		}
		c, secs, steal, err := launch(e.cfg.bin, append([]string{"-load", e.snap}, e.serveArgs()...), e.env)
		if err != nil {
			return err
		}
		e.srv = c
		raw = append(raw, secs)
		adj = append(adj, secs*(1-steal))
	}
	e.res.metrics["setup_s"] = median(adj)
	e.res.diag["raw_setup_s"] = median(raw)
	return e.connect()
}

func (e *e2e) connect() error {
	if e.ctl != nil {
		e.ctl.Close()
	}
	var err error
	e.ctl, err = dial(e.srv.addr)
	return err
}

// snapshot is the state sampled at each edge of a measurement window.
type snapshot struct {
	at           time.Time
	srvCPU, self float64
	host         hostMark
	gets         int64
	m            serverMetrics
	writeBytes   int64
	gc           int64
}

func (e *e2e) sample() (snapshot, error) {
	s := snapshot{at: time.Now(), gets: e.gets.Load(), gc: e.srv.gcLines.Load(), self: selfCPU()}
	s.host = hostCPU()
	var err error
	if s.srvCPU, err = procCPU(e.srv.pid()); err != nil {
		return s, err
	}
	if s.writeBytes, err = procWriteBytes(e.srv.pid()); err != nil {
		return s, err
	}
	s.m, err = fetchMetrics(e.ctl)
	return s, err
}

// post sends one post on rc and reports whether the server accepted it.
func (e *e2e) post(rc *rawConn, p post) bool {
	if status, _, err := rc.do(p.wire); err != nil || status != 202 {
		e.failOp()
		return false
	}
	return true
}

// awaitVisible probes /khop?node=u&k=1 until the post's last add shows,
// and returns when it did. A post never seen counts as one failed op.
func (e *e2e) awaitVisible(rc *rawConn, p post) (time.Time, bool) {
	req := getRequest("/khop?node=" + strconv.Itoa(p.probeU) + "&k=1")
	deadline := time.Now().Add(visibleTimeout)
	nodes := make([]int, 0, 32)
	for {
		status, body, err := rc.do(req)
		t1 := time.Now()
		if err != nil || status != 200 {
			e.failOp()
			return t1, false
		}
		e.gets.Add(1)
		var ok bool
		nodes, ok = jsonInts(nodes[:0], body, `"nodes":`)
		if !ok {
			e.mu.Lock()
			e.res.oracleErr("probe of node %d: unparsable /khop answer %q", p.probeU, body)
			e.mu.Unlock()
			return t1, false
		}
		for _, v := range nodes {
			if v == p.probeV {
				return t1, true
			}
		}
		if t1.After(deadline) {
			e.failOp()
			return t1, false
		}
		time.Sleep(probeEvery)
	}
}

// sendAndAwait posts p and waits until it is visible, timing from start.
func (e *e2e) sendAndAwait(rc *rawConn, p post, start time.Time) bool {
	return e.post(rc, p) && e.recordVisible(rc, p, start)
}

// recordVisible waits until the accepted post p is visible, records its
// latency from start and hands its adds to the removal pool.
func (e *e2e) recordVisible(rc *rawConn, p post, start time.Time) bool {
	seen, ok := e.awaitVisible(rc, p)
	if !ok {
		return false
	}
	e.churn.visible(p)
	e.mu.Lock()
	e.vis = append(e.vis, float64(seen.Sub(start))/1e6)
	e.res.ops.ok(seen.Sub(start))
	e.mu.Unlock()
	return true
}

// failOp counts one operation that could not even be attempted cleanly.
func (e *e2e) failOp() {
	e.mu.Lock()
	e.res.ops.fail()
	e.mu.Unlock()
}

// readSample is one read response kept for the oracle.
type readSample struct {
	kind uint8
	arg  int32
	body []byte
}

// readLoop sends worker wid's pre-encoded mix back to back until stop.
func (e *e2e) readLoop(wid int, stop *atomic.Bool, keep bool) ([]readSample, error) {
	rc, err := dial(e.srv.addr)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	ring := mixRing(uint64(e.cfg.seed), wid, ringSize, e.cfg.nodes)
	lat := latencies{samples: make([]time.Duration, 0, 1<<18)}
	var samples []readSample
	for i := 0; !stop.Load(); i++ {
		r := &ring[i%len(ring)]
		t0 := time.Now()
		status, body, err := rc.do(r.wire)
		d := time.Since(t0)
		if err != nil || status != 200 {
			lat.fail()
			if err != nil {
				rc.Close()
				if rc, err = dial(e.srv.addr); err != nil {
					break
				}
			}
			continue
		}
		lat.ok(d)
		e.gets.Add(1)
		if keep && i%sampleEvery == 0 {
			samples = append(samples, readSample{r.kind, r.arg, append([]byte(nil), body...)})
		}
	}
	e.mu.Lock()
	e.reads.merge(&lat)
	e.res.ops.merge(&lat)
	e.mu.Unlock()
	return samples, nil
}

// window runs the workload's measured window and records its metrics.
func (e *e2e) window() error {
	secs := e.cfg.seconds
	stop := &atomic.Bool{}
	var wg sync.WaitGroup
	var waitReads func() ([][]readSample, error)
	if e.w.reads {
		waitReads = e.startReads(stop, e.w.adds == 0)
	}

	// Ingest counts write bytes over whole compaction cycles: this sampler
	// records the edges of every cycle inside the window.
	var cycles []snapshot
	samplerDone := make(chan struct{})
	if e.w.compactEvery > 0 {
		srvPid := e.srv.pid()
		go func() {
			defer close(samplerDone)
			rc, err := dial(e.srv.addr)
			if err != nil {
				return
			}
			defer rc.Close()
			var lastC uint64
			for first := true; !stop.Load(); first = false {
				m, err := fetchMetrics(rc)
				if err != nil || m.WAL == nil {
					return
				}
				if first {
					lastC = m.WAL.Compactions
				} else if m.WAL.Compactions != lastC {
					wb, err := procWriteBytes(srvPid)
					if err != nil {
						return
					}
					lastC = m.WAL.Compactions
					cycles = append(cycles, snapshot{m: m, writeBytes: wb})
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	} else {
		close(samplerDone)
	}

	before, err := e.sample()
	if err != nil {
		return err
	}
	t0 := before.at
	tEnd := t0.Add(time.Duration(secs * float64(time.Second)))
	if e.w.adds > 0 {
		if e.w.rate > 0 {
			wg.Add(1)
			go func() { defer wg.Done(); e.openLoop(t0, tEnd) }()
		} else {
			for i := 0; i < e.w.outstanding; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); e.closedLoop(tEnd) }()
			}
		}
	}
	time.Sleep(time.Until(tEnd))
	stop.Store(true)
	after, err := e.sample()
	if err != nil {
		return err
	}
	hwm, err := procHWM(e.srv.pid())
	if err != nil {
		return err
	}
	wg.Wait()
	<-samplerDone
	var samples [][]readSample
	if waitReads != nil {
		if samples, err = waitReads(); err != nil {
			return err
		}
	}
	end, err := waitQuiesced(e.ctl, time.Minute)
	if err != nil {
		return err
	}
	wb, err := procWriteBytes(e.srv.pid())
	if err != nil {
		return err
	}

	el := after.at.Sub(before.at).Seconds()
	applied := float64(after.m.Applied - before.m.Applied)
	gets := float64(after.gets - before.gets)
	m := e.res.metrics
	m["server_rss_mb"] = hwm
	m["cpu_us_per_op"] = (after.srvCPU - before.srvCPU) * 1e6 / (gets + applied)
	if e.w.reads {
		e.readStats(&e.reads, el)
	}
	steal := stealShare(before.host, after.host)
	e.res.diag["host_steal_frac"] = steal
	e.res.diag["client_cpu_cores"] = (after.self - before.self) / el
	e.res.diag["server_cpu_cores"] = (after.srvCPU - before.srvCPU) / el
	e.res.diag["gc_per_s"] = float64(after.gc-before.gc) / el
	if b := after.m.Batches - before.m.Batches; b > 0 {
		e.res.diag["ops_per_epoch"] = applied / float64(b)
		e.res.diag["epochs_per_s"] = float64(b) / el
	}
	if e.w.adds > 0 {
		e.recordWrites(applied/el, steal, e.w.rate == 0)
		if len(e.late) > 0 {
			e.res.diag["sched_late_p50_ms"] = median(e.late)
			e.res.diag["sched_late_max_ms"] = quantile(e.late, 1)
		}
		if len(cycles) >= 2 {
			a, b := cycles[0], cycles[len(cycles)-1]
			m["write_bytes_per_op"] = float64(b.writeBytes-a.writeBytes) / float64(b.m.Applied-a.m.Applied)
			e.res.diag["compaction_cycles"] = float64(len(cycles) - 1)
		} else {
			m["write_bytes_per_op"] = float64(wb-before.writeBytes) / float64(end.Applied-before.m.Applied)
		}
	}

	if e.w.reads && e.w.adds == 0 {
		e.checkSamples(e.g0, samples)
	}
	return nil
}

// readStats records the read metrics from lat, measured over el seconds.
func (e *e2e) readStats(lat *latencies, el float64) {
	e.res.metrics["read_p50_us"] = lat.quantile(0.5) / 1e3
	e.res.metrics["read_p90_us"] = lat.quantile(0.9) / 1e3
	e.res.readP50Us = e.res.metrics["read_p50_us"]
	e.res.diag["read_p99_us"] = lat.quantile(0.99) / 1e3
	e.res.diag["read_qps"] = float64(len(lat.samples)) / el
	e.res.diag["reads"] = float64(len(lat.samples))
}

// checkSamples verifies kept read responses against g, the topology every
// one of them was served from.
func (e *e2e) checkSamples(g *graph.Graph, samples [][]readSample) {
	o := newOracle(g, dest)
	checked := 0
	for _, ss := range samples {
		for _, s := range ss {
			if err := o.check(s.kind, s.arg, s.body); err != nil {
				e.res.oracleErr("%s read sample: %v", e.w.name, err)
			}
			checked++
		}
	}
	e.res.diag["oracle_reads_checked"] = float64(checked)
}

// readsAfter is ingest's read measurement: ingest sends no read mix, so
// after its window the read mix runs for secs on the quiesced server over
// the topology ingest churned. Every kept answer is checked against the
// mirror.
func (e *e2e) readsAfter(secs float64) error {
	stop := &atomic.Bool{}
	t0 := time.Now()
	wait := e.startReads(stop, true)
	time.Sleep(time.Duration(secs * float64(time.Second)))
	stop.Store(true)
	samples, err := wait()
	if err != nil {
		return err
	}
	e.readStats(&e.reads, time.Since(t0).Seconds())
	e.checkSamples(e.churn.mirror, samples)
	return nil
}

// startReads starts the two closed-loop read connections, which run until
// stop; the returned function waits for them and hands back their kept
// answers.
func (e *e2e) startReads(stop *atomic.Bool, keep bool) func() ([][]readSample, error) {
	samples := make([][]readSample, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for wid := range samples {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			samples[wid], errs[wid] = e.readLoop(wid, stop, keep)
		}(wid)
	}
	return func() ([][]readSample, error) {
		wg.Wait()
		return samples, errors.Join(errs...)
	}
}

// openLoop sends posts on schedule from t0 until tEnd and waits for each
// to become visible, timing it from the time it was due.
func (e *e2e) openLoop(t0, tEnd time.Time) {
	rc, err := dial(e.srv.addr)
	if err != nil {
		e.failOp()
		return
	}
	defer rc.Close()
	period := time.Duration(float64(time.Second) / e.w.rate)
	var probes sync.WaitGroup
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * period)
		if !due.Before(tEnd) {
			break
		}
		time.Sleep(time.Until(due))
		p := e.churn.next(e.w.adds, e.w.removes)
		late := time.Since(due)
		if !e.post(rc, p) {
			continue
		}
		e.mu.Lock()
		e.late = append(e.late, float64(late)/1e6)
		e.mu.Unlock()
		probes.Add(1)
		go func() {
			defer probes.Done()
			pc, err := dial(e.srv.addr)
			if err != nil {
				e.failOp()
				return
			}
			defer pc.Close()
			e.recordVisible(pc, p, due)
		}()
	}
	probes.Wait()
}

// closedLoop keeps one post in flight until tEnd.
func (e *e2e) closedLoop(tEnd time.Time) {
	rc, err := dial(e.srv.addr)
	if err != nil {
		e.failOp()
		return
	}
	defer rc.Close()
	for time.Now().Before(tEnd) {
		p := e.churn.next(e.w.adds, e.w.removes)
		if !e.sendAndAwait(rc, p, time.Now()) {
			return
		}
	}
}

// recordWrites records the freshness and ingest metrics of a write phase
// whose host steal share was steal. A post's visibility is a CPU-bound span
// of tens of milliseconds or more, which steal stretches in proportion, and
// so is a closed loop's rate: both are reported on the CPU time the host
// left the guest (latency × (1 − steal), rate ÷ (1 − steal)), with the
// wall-clock figures as diagnostics. An open loop's rate is its schedule's.
func (e *e2e) recordWrites(opsPerSec, steal float64, closedLoop bool) {
	m, d := e.res.metrics, e.res.diag
	p50, p90 := median(e.vis), quantile(e.vis, 0.9)
	m["visible_p50_ms"] = p50 * (1 - steal)
	m["visible_p90_ms"] = p90 * (1 - steal)
	m["ingest_ops_s"] = opsPerSec
	if closedLoop {
		m["ingest_ops_s"] = opsPerSec / (1 - steal)
	}
	e.res.visibleP50Ms = p50
	d["raw_visible_p50_ms"], d["raw_visible_p90_ms"], d["raw_ingest_ops_s"] = p50, p90, opsPerSec
	d["visible_max_ms"] = quantile(e.vis, 1)
	d["posts_visible"] = float64(len(e.vis))
}

// restart journals the workload's tail, kills the server with SIGKILL, and
// relaunches it on the same data dir with the serving flags only. The
// recovered topology must hash to what was served before the kill.
func (e *e2e) restart() (secs, steal float64, err error) {
	for i := 0; i < e.w.tailPosts; i++ {
		p := e.churn.next(e.w.adds, e.w.removes)
		if !e.sendAndAwait(e.ctl, p, time.Now()) {
			return 0, 0, errors.New("tail post failed")
		}
	}
	if _, err := waitQuiesced(e.ctl, time.Minute); err != nil {
		return 0, 0, err
	}
	before, err := fetchHash(e.ctl)
	if err != nil {
		return 0, 0, err
	}
	e.ctl.Close()
	e.ctl = nil
	e.srv.kill()
	e.srv = nil
	c, secs, steal, err := launch(e.cfg.bin, e.serveArgs(), e.env)
	if err != nil {
		return 0, 0, err
	}
	e.srv = c
	if err := e.connect(); err != nil {
		return 0, 0, err
	}
	after, err := fetchHash(e.ctl)
	if err != nil {
		return 0, 0, err
	}
	if after != before {
		e.res.oracleErr("restart %d: recovered hash %s, served %s before kill -9", e.restarts, after, before)
	}
	e.restarts++
	return secs, steal, nil
}

// quietWrites is read-mix's write phase, after its read window and
// restarts: posts sent one at a time, each waited for, so the writer works
// alone. It gives read-mix its freshness, ingest and write-cost numbers.
func (e *e2e) quietWrites() error {
	before, err := e.sample()
	if err != nil {
		return err
	}
	for i := 0; i < e.w.quietPosts; i++ {
		p := e.churn.next(churnAdds, churnRemoves)
		if !e.sendAndAwait(e.ctl, p, time.Now()) {
			return errors.New("quiet-phase post failed")
		}
	}
	after, err := e.sample()
	if err != nil {
		return err
	}
	el := after.at.Sub(before.at).Seconds()
	applied := float64(after.m.Applied - before.m.Applied)
	e.res.metrics["write_bytes_per_op"] = float64(after.writeBytes-before.writeBytes) / applied
	e.recordWrites(applied/el, stealShare(before.host, after.host), true)
	e.res.diag["quiet_steal_frac"] = stealShare(before.host, after.host)
	if b := after.m.Batches - before.m.Batches; b > 0 {
		e.res.diag["ops_per_epoch"] = applied / float64(b)
		e.res.diag["epochs_per_s"] = float64(b) / el
	}
	return nil
}

// finalCheck compares the served topology with the mirror of every post,
// and sampled routes and k-hop balls with BFS on the mirror.
func (e *e2e) finalCheck() error {
	if _, err := waitQuiesced(e.ctl, time.Minute); err != nil {
		return err
	}
	got, err := fetchHash(e.ctl)
	if err != nil {
		return err
	}
	mirror := e.churn.mirror
	if want := fmt.Sprintf("%016x", wal.GraphHash(mirror)); got != want {
		e.res.oracleErr("served topology hash %s, mirror of the post stream %s", got, want)
	}
	o := newOracle(mirror, dest)
	r := stats.NewRand(e.cfg.seed ^ 0x0dac1e)
	for i := 0; i < 200; i++ {
		kind := uint8(kindRoute)
		if i%5 == 4 {
			kind = kindKhop
		}
		req := readFor(kind, int32(r.Intn(mirror.N())))
		t0 := time.Now()
		status, body, err := e.ctl.do(req.wire)
		if err != nil {
			return err
		}
		if status != 200 {
			e.failOp()
			continue
		}
		e.res.ops.ok(time.Since(t0))
		if err := o.check(req.kind, req.arg, body); err != nil {
			e.res.oracleErr("final sample: %v", err)
		}
	}
	return nil
}

// runE2E is one end-to-end run: setup launches, the window, kill -9
// restarts, read-mix's quiet writes, and the final oracle.
func runE2E(cfg config, env []string) (*result, error) {
	e, err := newE2E(cfg, env)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.setup(); err != nil {
		return nil, err
	}
	if err := e.window(); err != nil {
		return nil, err
	}
	if !e.w.reads {
		if err := e.readsAfter(cfg.seconds / 2); err != nil {
			return nil, err
		}
	}
	// The first restart after the window tends to read slower than the
	// rest, so it is a warm-up and not counted.
	var raw, adj []float64
	for i := 0; cfg.restarts > 0 && i <= cfg.restarts; i++ {
		secs, steal, err := e.restart()
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		if i > 0 {
			raw = append(raw, secs)
			adj = append(adj, secs*(1-steal))
		}
	}
	if len(raw) > 0 {
		e.res.metrics["restart_ready_s"] = median(adj)
		e.res.diag["raw_restart_ready_s"] = median(raw)
	}
	if e.w.quietPosts > 0 {
		if err := e.quietWrites(); err != nil {
			return nil, err
		}
	}
	if err := e.finalCheck(); err != nil {
		return nil, err
	}
	e.res.meta["cpu_model"] = cpuModel()
	e.res.meta["go_version"] = runtime.Version()
	e.res.diag["nproc"] = float64(runtime.NumCPU())
	e.res.diag["gomaxprocs_client"] = float64(runtime.GOMAXPROCS(0))
	e.res.diag["gomaxprocs_server"] = float64(serverGOMAXPROCS())
	return e.res, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// serverGOMAXPROCS is what the Go runtime picks in the child: GOMAXPROCS
// from the environment, else the CPU count.
func serverGOMAXPROCS() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}
