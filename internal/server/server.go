// Package server is the serving layer: a resident process that owns a graph
// and answers structure queries — routing next-hops, k-hop neighborhoods,
// centrality top-k, backbone membership — over HTTP while mutation batches
// stream in. Reads are lock-free: every published state is an immutable
// Epoch behind an atomic.Pointer (RCU-style), loaded once per request.
// Writes funnel through a single writer goroutine that drains the mutation
// queue in batches, heals the labels through heal.Supervisor (localized
// repair first, full recompute when the budget is exhausted), and swaps in
// the next epoch. Readers never block writers and writers never block
// readers; old epochs are garbage-collected once the last in-flight request
// drops them.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"structura/internal/graph"
	"structura/internal/heal"
	"structura/internal/sim"
	"structura/internal/wal"
)

// Mutation is one client-submitted edge change.
type Mutation struct {
	Op string `json:"op"` // "add" | "remove"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// Config tunes a Server. The zero value is usable; unset limits get
// defaults at construction.
type Config struct {
	// Dest is the destination node the route labels point toward.
	Dest int

	// SkipCDS disables the CDS backbone engine entirely. The MIS→CDS
	// construction requires a connected graph and does not scale to very
	// large supports, so high-throughput deployments opt out; /cds/member
	// then answers 404.
	SkipCDS bool

	// MaxInFlight caps concurrently-executing queries; excess requests are
	// shed with 429 rather than queued. Default 256.
	MaxInFlight int

	// QueueDepth is the mutation queue capacity; a full queue sheds
	// /mutate posts with 429. Default 4096.
	QueueDepth int

	// BatchMax bounds how many queued mutations the writer folds into one
	// epoch. Default 256.
	BatchMax int

	// MaxK caps the k accepted by /khop. Default 4.
	MaxK int

	// RepairBudget bounds each localized repair before the supervisor
	// escalates to a full recompute. Zero = unbounded repair.
	RepairBudget heal.Budget

	// WAL, when set, journals every mutation batch before it is healed or
	// published: a batch reaches the write-ahead log (fsynced per the log's
	// policy) first, so a crash at any later point replays it on restart.
	// The log's replica (WAL.Graph) is then the server's one topology, and
	// WAL.Append its only mutator; the graph passed to New must hold the
	// same topology.
	// A journaling error aborts the batch and stops the writer — the server
	// keeps serving the last published epoch, but no further epoch may be
	// built on state the log could not record. The caller owns the log's
	// lifecycle (Open/Create before New, Close after Shutdown).
	WAL *wal.Log

	// Recovered, when set, is the recovery report of the wal.Open that
	// produced the graph this server was built over. When the report carries
	// a usable durable label epoch, New warm-starts the engines from those
	// labels and heals exactly the recovery's dirty set — recovery-to-ready
	// becomes O(changes since the last epoch) instead of O(graph). Otherwise
	// the structures are built from scratch and audited with a full invariant
	// sweep. Either way the report and the standing-violation count are
	// exposed on /metrics.
	Recovered *wal.Recovery

	// OnPublish, when set, observes every epoch right before it is
	// published. Test hook for the consistency properties.
	OnPublish func(*Epoch)
}

func (c *Config) setDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.MaxK <= 0 {
		c.MaxK = 4
	}
}

// endpointNames fixes the /metrics schema.
var endpointNames = []string{
	"/route", "/khop", "/centrality/topk", "/cds/member", "/labels",
	"/mutate", "/metrics", "/healthz",
}

// Server owns a graph and serves structure queries against RCU epochs.
type Server struct {
	cfg Config
	n   int

	epoch atomic.Pointer[Epoch]
	mux   *http.ServeMux
	sem   chan struct{} // concurrency-limit semaphore, non-blocking acquire
	mutCh chan Mutation

	// g is the one writer-owned topology: the WAL's replica when
	// journaling, else a private copy of the graph New was given. The
	// writer applies each batch to it once, then every supervisor heals
	// its structure over it.
	g            *graph.Graph
	dv, mis, cds *heal.Supervisor

	src    labelSources // reads the engines' labels node by node
	cdsErr string       // why the backbone is absent, when it is

	met *metrics

	ctx        context.Context
	cancel     context.CancelFunc
	writerDone chan struct{}
	stopErr    error // why the writer stopped; set before writerDone closes
	inflight   sync.WaitGroup
	closed     atomic.Bool

	accepted atomic.Uint64 // mutations enqueued
	applied  atomic.Uint64 // mutations drained by the writer (published or dropped)

	khopPool sync.Pool // *khopScratch

	// testHookBatch, when set, runs after the writer drains a batch and
	// before it heals/publishes — the epoch-swap races in tests hang here.
	testHookBatch func()
}

type khopScratch struct {
	dist  []int32
	queue []int32
}

// New builds a Server over g and publishes epoch 1. Without a WAL the
// server works on a private copy of g; with one it works on cfg.WAL.Graph(),
// and g must hold the same topology. The initial labels come from scratch
// construction, or from cfg.Recovered's label epoch healed over its dirty
// set. The writer goroutine starts immediately; call Shutdown to stop it.
func New(g *graph.Graph, cfg Config) (*Server, error) {
	start := time.Now()
	if g == nil || g.N() == 0 {
		return nil, errors.New("server: graph must have at least one node")
	}
	if g.Directed() {
		return nil, errors.New("server: graph must be undirected")
	}
	if cfg.Dest < 0 || cfg.Dest >= g.N() {
		return nil, fmt.Errorf("server: dest %d out of range [0,%d)", cfg.Dest, g.N())
	}
	cfg.setDefaults()
	g, err := writerGraph(g, cfg.WAL)
	if err != nil {
		return nil, err
	}

	s := &Server{
		g:          g,
		cfg:        cfg,
		n:          g.N(),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		mutCh:      make(chan Mutation, cfg.QueueDepth),
		met:        newMetrics(endpointNames),
		writerDone: make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	// Warm start: when recovery carried a durable label epoch matching this
	// topology and destination, seed every engine from it and heal only the
	// dirty set instead of rebuilding from scratch.
	labels := recoveredLabels(cfg, g)

	// labelNs times label *acquisition* — the phase durable label epochs
	// exist to shorten: full recompute (BFS, greedy MIS, invariant sweep)
	// when no epoch survived, versus seeding engines from recovered labels
	// and healing only the dirty set. label_ns is the recompute-vs-replay
	// comparison, ready_ns the total boot wall time.
	var labelNs int64
	var dvEng, misEng heal.Engine
	labelStart := time.Now()
	if labels != nil {
		next := make([]int, len(labels.Next))
		for i, v := range labels.Next {
			next[i] = int(v)
		}
		dvEng, err = heal.NewDistVecEngineFromLabels(g, cfg.Dest, labels.Dist, next)
	} else {
		dvEng, err = heal.NewDistVecEngineOver(g, cfg.Dest)
	}
	if err != nil {
		s.cancel()
		return nil, fmt.Errorf("server: distvec engine: %w", err)
	}
	if labels != nil {
		misEng, err = heal.NewMISEngineFromLabels(g, labels.MIS)
	} else {
		misEng, err = heal.NewMISEngineOver(g)
	}
	labelNs += time.Since(labelStart).Nanoseconds()
	if err != nil {
		s.cancel()
		return nil, fmt.Errorf("server: mis engine: %w", err)
	}
	s.src.route = dvEng.(routeSource)
	s.src.mis = misEng.(misSource)
	s.dv = &heal.Supervisor{Engine: dvEng, Budget: cfg.RepairBudget, Ctx: s.ctx}
	s.mis = &heal.Supervisor{Engine: misEng, Budget: cfg.RepairBudget, Ctx: s.ctx}

	if cfg.SkipCDS {
		s.cdsErr = "disabled by config"
	} else {
		labelStart = time.Now()
		if labels != nil && labels.HasCDS {
			cdsEng, cerr := heal.NewCDSEngineFromLabels(g, labels.CDS)
			labelNs += time.Since(labelStart).Nanoseconds()
			if cerr != nil {
				s.cancel()
				return nil, fmt.Errorf("server: cds engine: %w", cerr)
			}
			s.src.cds = cdsEng.(cdsSource)
			s.cds = &heal.Supervisor{Engine: cdsEng, Budget: cfg.RepairBudget, Ctx: s.ctx}
		} else if cdsEng, cerr := heal.NewCDSEngineOver(g); cerr != nil {
			// No CDS exists (disconnected support). The backbone is optional:
			// serve everything else and report why it is absent.
			labelNs += time.Since(labelStart).Nanoseconds()
			s.cdsErr = cerr.Error()
		} else {
			labelNs += time.Since(labelStart).Nanoseconds()
			s.src.cds = cdsEng.(cdsSource)
			s.cds = &heal.Supervisor{Engine: cdsEng, Budget: cfg.RepairBudget, Ctx: s.ctx}
		}
	}

	s.khopPool.New = func() any {
		sc := &khopScratch{dist: make([]int32, s.n), queue: make([]int32, 0, 64)}
		// dist stays all -1 between uses; handlers reset the entries they touch.
		for i := range sc.dist {
			sc.dist[i] = -1
		}
		return sc
	}

	if rec := cfg.Recovered; rec != nil {
		standing := 0
		labelStart = time.Now()
		if labels != nil {
			// Labels are trusted up to the dirty set recovery reported: heal
			// exactly those nodes, no full audit. This is what bounds
			// recovery-to-ready by the label lag instead of the graph size.
			s.met.warmStart.Store(1)
			s.met.dirtyHealed.Store(uint64(len(rec.Dirty)))
			for _, sup := range s.supervisors() {
				hrep, herr := sup.HealDirty(rec.Dirty)
				if hrep != nil {
					s.met.repairs.Add(uint64(hrep.Repairs))
					s.met.escalations.Add(uint64(hrep.Escalations))
					standing += len(hrep.Standing)
				}
				if herr != nil {
					s.cancel()
					return nil, fmt.Errorf("server: warm-start heal: %w", herr)
				}
			}
		} else {
			// The structures were constructed over a recovered graph, not
			// healed into place — audit them against every registered
			// invariant before the first epoch is published.
			for _, sup := range s.supervisors() {
				standing += len(sup.Sweep())
			}
		}
		labelNs += time.Since(labelStart).Nanoseconds()
		s.met.recoveryStanding.Store(uint64(standing))
	}
	s.met.labelNs.Store(labelNs)

	// The startup label epoch is made durable before serving: a process
	// that crashes before its first mutation batch still leaves labels the
	// next recovery can warm-start from. A warm start that healed nothing
	// diffs to zero records, so the steady-state restart is free.
	if err := s.publish(1, nil, nil); err != nil {
		s.cancel()
		return nil, fmt.Errorf("server: startup publish: %w", err)
	}

	readyNs := time.Since(start).Nanoseconds()
	if rec := cfg.Recovered; rec != nil {
		readyNs += rec.RecoveryNs
	}
	s.met.readyNs.Store(readyNs)

	s.mux = http.NewServeMux()
	s.routes()
	go s.writer()
	return s, nil
}

// writerGraph returns the one topology the writer mutates and every engine
// reads. With a WAL it is the log's replica, which must hold the same
// topology as g: the same graph, or an equal one by wal.GraphHash. Without
// one it is a private copy of g, so the caller's graph is never mutated.
func writerGraph(g *graph.Graph, l *wal.Log) (*graph.Graph, error) {
	if l == nil {
		return g.Clone(), nil
	}
	lg := l.Graph()
	if lg != g && (lg.M() != g.M() || wal.GraphHash(lg) != wal.GraphHash(g)) {
		return nil, fmt.Errorf("server: graph (%d nodes, %d edges) does not match the WAL's topology (%d nodes, %d edges)",
			g.N(), g.M(), lg.N(), lg.M())
	}
	return lg, nil
}

// recoveredLabels returns the recovery report's label epoch when it is
// usable for a warm start over g — present, sized to the recovered
// topology, and pointing at the configured destination — else nil.
func recoveredLabels(cfg Config, g *graph.Graph) *wal.LabelSet {
	rec := cfg.Recovered
	if rec == nil || rec.Labels == nil {
		return nil
	}
	ls := rec.Labels
	if ls.N() != g.N() || len(ls.MIS) != g.N() || ls.Dest != cfg.Dest {
		return nil
	}
	if ls.HasCDS && len(ls.CDS) != g.N() {
		return nil
	}
	return ls
}

// supervisors lists the active supervisors in a fixed order.
func (s *Server) supervisors() []*heal.Supervisor {
	sups := []*heal.Supervisor{s.dv, s.mis}
	if s.cds != nil {
		sups = append(sups, s.cds)
	}
	return sups
}

// publish builds the batch's one label epoch — copying only the label pages
// of the candidate nodes whose labels moved, or every page when candidates
// is nil (epoch 1, and after an escalation) — journals it when the server
// has a WAL (journal-before-publish: a label epoch is durable before any
// reader sees it), and publishes it as epoch seq over a topology that
// rebuilds the pages of the touched nodes (every page for epoch 1).
// candidates are sorted and distinct; touched are the batch's endpoints. It
// fails only when the journal does, and then publishes nothing.
func (s *Server) publish(seq uint64, touched, candidates []int) error {
	prev := s.epoch.Load()
	all := candidates == nil || prev == nil
	var labels *Labels
	var counts labelCounts
	if all {
		labels, counts = buildLabels(&s.src, s.n, s.cfg.Dest)
	} else {
		labels, counts = prev.Labels.withChanges(&s.src, candidates, prev.counts())
	}
	if s.cfg.WAL != nil {
		if all {
			candidates = make([]int, s.n)
			for v := range candidates {
				candidates[v] = v
			}
		}
		if _, err := s.cfg.WAL.AppendLabelChanges(labels, candidates); err != nil {
			return fmt.Errorf("journal labels: %w", err)
		}
	}
	ep := s.buildEpoch(seq, labels, counts, touched)
	if s.cfg.OnPublish != nil {
		s.cfg.OnPublish(ep)
	}
	s.epoch.Store(ep)
	return nil
}

// Epoch returns the currently published epoch.
func (s *Server) Epoch() *Epoch { return s.epoch.Load() }

// ReadySummary reports how construction reached serving state: total
// nanoseconds from recovery start to ready (WAL replay included), whether
// the engines warm-started from a durable label epoch instead of a full
// recompute, and how many dirty nodes that warm start had to heal.
func (s *Server) ReadySummary() (readyNs, labelNs int64, warmStart bool, dirtyHealed uint64) {
	return s.met.readyNs.Load(), s.met.labelNs.Load(), s.met.warmStart.Load() == 1, s.met.dirtyHealed.Load()
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Quiesced reports whether every accepted mutation has been drained by the
// writer (published or rejected). With no concurrent /mutate traffic, a true
// result means the current epoch reflects all accepted mutations.
func (s *Server) Quiesced() bool { return s.applied.Load() == s.accepted.Load() }

// Shutdown stops accepting queries (503), cancels the writer — aborting any
// in-progress repair without publishing — and waits for in-flight requests
// and the writer to drain, or for ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		<-s.writerDone
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writer is the single goroutine that owns all label state. It drains the
// mutation queue in batches, heals each batch through the supervisors, and
// publishes the next epoch. A batch that cannot be journaled, or that
// shutdown interrupts, is abandoned without publishing: the last published
// epoch stays live and consistent, and the writer stops for good, recording
// why in stopErr for /mutate and /healthz.
func (s *Server) writer() {
	defer close(s.writerDone)
	for {
		var first Mutation
		select {
		case <-s.ctx.Done():
			s.stopErr = s.ctx.Err()
			return
		case first = <-s.mutCh:
		}
		batch := []Mutation{first}
		for len(batch) < s.cfg.BatchMax {
			select {
			case m := <-s.mutCh:
				batch = append(batch, m)
			default:
				goto drained
			}
		}
	drained:
		if s.testHookBatch != nil {
			s.testHookBatch()
		}
		err := s.applyBatch(batch)
		s.applied.Add(uint64(len(batch)))
		if err != nil {
			s.stopErr = err
			return
		}
	}
}

// writerStopped returns why the writer stopped, or nil while it runs.
func (s *Server) writerStopped() error {
	select {
	case <-s.writerDone:
		return s.stopErr
	default:
		return nil
	}
}

// applyBatch applies one mutation batch to the topology, heals it through
// every supervisor and publishes the resulting epoch. It fails when the
// batch could not be made durable or shutdown cancelled the heal — the
// labels may be mid-repair, so nothing is published.
func (s *Server) applyBatch(batch []Mutation) error {
	events := make([]sim.Event, len(batch))
	recs := make([]wal.Record, len(batch))
	// Every mutation's endpoints, accepted or rejected: a superset of the
	// rows the batch can change, which is what the epoch's topology
	// rebuilds.
	touched := make([]int, 0, 2*len(batch))
	for i, m := range batch {
		touched = append(touched, m.U, m.V)
		op, t := sim.OpAddEdge, wal.TAddEdge
		if m.Op == "remove" {
			op, t = sim.OpRemoveEdge, wal.TRemoveEdge
		}
		events[i] = sim.Event{Round: 1, Op: op, U: m.U, V: m.V}
		recs[i] = wal.Record{Type: t, U: int32(m.U), V: int32(m.V), Weight: 1}
	}
	if s.cfg.WAL != nil {
		// Write-ahead: the batch is journaled (and fsynced per policy)
		// before any label moves, and Append applies it to the log's
		// replica — the topology every engine reads — under the graph's
		// acceptance rule, so replay-on-restart reconstructs exactly the
		// topology the published epoch is built from.
		if _, err := s.cfg.WAL.Append(recs); err != nil {
			s.met.walFailed.Add(1)
			s.met.abortedBatches.Add(1)
			return fmt.Errorf("journal batch: %w", err)
		}
	} else {
		for _, e := range events {
			e.ApplyEdge(s.g)
		}
	}
	// The whole batch is applied before any engine hears of it. By the
	// heal.Engine rule, labels moved only at the batch's endpoints and
	// within the repairs' Touched, unless some engine escalated: those are
	// the publish's candidates, built for this batch alone.
	candidates := slices.Clone(touched)
	for _, sup := range s.supervisors() {
		rep, err := sup.HealBatch(events)
		if rep != nil {
			s.met.repairs.Add(uint64(rep.Repairs))
			s.met.escalations.Add(uint64(rep.Escalations))
			s.met.repairRounds.Add(uint64(rep.RepairRounds))
			s.met.recomputeRounds.Add(uint64(rep.RecomputeRounds))
			s.met.standing.Add(uint64(len(rep.Standing)))
		}
		if err != nil {
			s.met.abortedBatches.Add(1)
			return fmt.Errorf("heal %s: %w", sup.Engine.Name(), err)
		}
		if rep.Escalations > 0 {
			candidates = nil
		} else if candidates != nil {
			candidates = append(candidates, rep.Touched...)
		}
	}
	if candidates != nil {
		slices.Sort(candidates)
		candidates = slices.Compact(candidates)
	}
	// The label snapshot is journaled after the topology commit and before
	// publication. Its deltas are stamped with the committed batch seq, so
	// recovery can never reconstruct labels newer than the durable topology
	// — a crash between the topology commit and here just costs the next
	// start a HealDirty pass.
	if err := s.publish(s.epoch.Load().Seq+1, touched, candidates); err != nil {
		s.met.walFailed.Add(1)
		s.met.abortedBatches.Add(1)
		return err
	}
	s.met.batches.Add(1)
	return nil
}
