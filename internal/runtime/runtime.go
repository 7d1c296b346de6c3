// Package runtime provides the synchronous round-based execution kernel of
// §IV: nodes interact only with their restricted vicinity, exchanging state
// with neighbors once per round. Distributed labeling algorithms (MIS, CDS,
// distance-vector, safety levels) run on this kernel, and its round/message
// accounting backs the paper's complexity claims.
//
// One round loop runs every configuration. Each round it steps the nodes of
// a frontier bitset: in the default full mode the frontier is pinned to
// every node, under WithDelta it holds only the nodes whose inputs may have
// changed. A perturber (WithPerturber) makes the same rounds lossy and the
// topology dynamic; the kernel then keeps per-link neighbor views instead
// of gathering neighbor states fresh each round.
//
// Within a round every node's step is a pure function of the previous
// round's states, so the kernel is free to evaluate nodes in any order —
// including concurrently. RunCSR shards the node set into word-aligned
// ranges across workers when the graph is large enough (or when
// WithParallelism asks for it) and produces results bit-for-bit identical
// to the sequential schedule.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	stdruntime "runtime"
	"sort"
	"sync"
	"time"

	"structura/internal/graph"
)

// RoundStats describes one synchronous round, as delivered to a
// RoundObserver and recorded in Stats.History.
type RoundStats struct {
	Round    int           // 1-based round index
	Changed  int           // nodes whose step reported a state change
	Messages int           // messages exchanged this round
	Elapsed  time.Duration // wall time spent stepping the round
}

// RoundObserver receives per-round statistics as the run progresses. It is
// called from the coordinating goroutine between rounds (never
// concurrently), after the round's states are committed.
type RoundObserver func(RoundStats)

// Stats reports the cost of a run in the standard synchronous measures.
type Stats struct {
	Rounds   int
	Messages int // one message per directed edge per round (state exchange)
	Stable   bool
	History  []RoundStats // per-round trace, one entry per executed round
}

type config struct {
	maxRounds    int
	maxRoundsSet bool
	parallelism  int // 0 = auto (GOMAXPROCS, sequential below cutoff)
	observer     RoundObserver
	perturber    Perturber
	delta        bool
	ctx          context.Context
	ckptEvery    int
	ckptSink     any // func(Checkpoint[S]); asserted back in RunCSR
	resume       any // Checkpoint[S]; asserted back in RunCSR
}

// Option configures a Run.
type Option func(*config)

// WithMaxRounds bounds the run at r rounds. Zero means "execute no rounds":
// the init states are returned without a stability probe. Without this
// option the kernel defaults to 4n+8 rounds, enough for every labeling
// scheme in the repository to stabilize.
func WithMaxRounds(r int) Option {
	return func(c *config) { c.maxRounds = r; c.maxRoundsSet = true }
}

// WithParallelism fixes the number of worker goroutines stepping nodes
// within a round, in every mode. p <= 0 restores the automatic choice
// (GOMAXPROCS, with a sequential fallback for small graphs); p == 1 forces
// the sequential path; p > 1 forces sharded execution even on graphs below
// the automatic cutoff, which is how tests exercise the parallel path
// deterministically. Shards are whole 64-node bitset words, so a graph of
// 64 nodes or fewer always runs on one shard.
func WithParallelism(p int) Option {
	return func(c *config) { c.parallelism = p }
}

// WithObserver registers a per-round statistics hook (convergence traces,
// progress reporting). The observer must not call back into the run.
func WithObserver(obs RoundObserver) Option {
	return func(c *config) { c.observer = obs }
}

// parallelCutoff is the node count below which the automatic mode stays
// sequential: under ~2k nodes a round's work is comparable to the cost of
// the fork/join barrier itself.
const parallelCutoff = 2048

// Run executes a synchronous distributed algorithm: every round, each node
// observes its own state and its neighbors' states from the end of the
// previous round and produces a new state. The run stops when a round
// leaves every state unchanged, or after the round budget (WithMaxRounds).
//
// step must be a pure function of its inputs for the simulation to be
// faithful — and, because the kernel may step nodes concurrently, it must
// not write shared state. The neighbor slice is ordered by adjacency and
// reused across calls, so implementations must not retain it.
//
// Run freezes the graph to an immutable CSR snapshot before the first
// round, so every round walks flat int32 adjacency arrays; mutating g while
// a run is in flight does not affect the run. Callers that execute many
// runs over one topology should freeze once and use RunCSR directly.
func Run[S any](
	g *graph.Graph,
	init func(v int) S,
	step func(v int, self S, neighbors []S) (S, bool),
	opts ...Option,
) ([]S, Stats, error) {
	return RunCSR(g.Freeze(), init, step, opts...)
}

// kernel is one run's round state. Full mode pins the frontier to every
// node and commits a round by swapping cur and next; delta mode rebuilds
// the frontier from each round's changed set and commits only the nodes it
// stepped.
type kernel[S any] struct {
	g        *graph.CSR
	init     func(v int) S
	step     func(v int, self S, neighbors []S) (S, bool)
	delta    bool
	cur      []S
	next     []S
	seen     [][]S        // perturbed: seen[v][i] = last delivered state of v's i-th neighbor
	pending  [][]bool     // perturbed delta: deliveries suppressed and still owed
	pc       []int32      // perturbed delta: set bits per pending row
	frontier bitset       // nodes stepped this round
	senders  bitset       // delta: last round's changed set, broadcasting this round
	changed  bitset       // delta: nodes whose step reports a change this round
	p        Perturbation // this round's faults
	shards   []shard
	workers  []worker[S]
}

// worker is one shard's per-round scratch and results.
type worker[S any] struct {
	scratch   []S     // clean path: reusable neighbor-state gather buffer
	carry     []int32 // perturbed delta: extra next-frontier members
	changed   int
	delivered int
	err       error
}

type shard struct{ lo, hi int }

// wordShards partitions [0, n) into word-aligned ranges (multiples of 64),
// one per worker, so concurrent workers write disjoint bitset words without
// synchronization. The final shard absorbs the partial word at n.
func wordShards(n, workers int) []shard {
	if workers <= 1 || n <= 64 {
		return []shard{{0, n}}
	}
	words := (n + 63) / 64
	if workers > words {
		workers = words
	}
	out := make([]shard, 0, workers)
	for w := 0; w < workers; w++ {
		lo := (w * words / workers) * 64
		hi := ((w + 1) * words / workers) * 64
		if hi > n {
			hi = n
		}
		if lo < hi {
			out = append(out, shard{lo: lo, hi: hi})
		}
	}
	return out
}

// forShards runs fn once per shard index, on one goroutine per shard when
// there is more than one. The WaitGroup barrier publishes every worker's
// writes before the coordinator resumes.
func forShards(count int, fn func(i int)) {
	if count == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(count)
	for i := 0; i < count; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// RunCSR is Run on a pre-built CSR snapshot: the steady-state round path
// with the freeze cost amortized away. On the clean path neighbor states
// are gathered through zero-copy CSR views, so a round allocates nothing
// beyond the one-time state and scratch arrays.
func RunCSR[S any](
	g *graph.CSR,
	init func(v int) S,
	step func(v int, self S, neighbors []S) (S, bool),
	opts ...Option,
) ([]S, Stats, error) {
	if init == nil || step == nil {
		return nil, Stats{}, errors.New("runtime: nil init or step")
	}
	n := g.N()
	cfg := config{maxRounds: 4*n + 8}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxRoundsSet && cfg.maxRounds < 0 {
		return nil, Stats{}, errors.New("runtime: negative maxRounds")
	}
	workers := cfg.parallelism
	forced := workers > 0
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	if !forced && n < parallelCutoff {
		workers = 1
	}
	sink, resume, err := checkpointPlumbing[S](&cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	pert := cfg.perturber

	k := &kernel[S]{g: g, init: init, step: step, delta: cfg.delta, shards: wordShards(n, workers)}
	k.workers = make([]worker[S], len(k.shards))
	k.cur = make([]S, n)
	for v := 0; v < n; v++ {
		k.cur[v] = init(v)
	}
	k.next = make([]S, n)
	k.frontier = newBitset(n)
	k.frontier.setAll(n)
	if k.delta {
		// Round 1: every node broadcasts its init state to every observer.
		k.senders = newBitset(n)
		k.senders.setAll(n)
		k.changed = newBitset(n)
	}
	// The clean path's bill for the coming round. A full round, and a fresh
	// delta run's first round, send one message per directed link: M on a
	// directed graph, 2M on an undirected one (two links per edge).
	msgs := g.M()
	if !g.Directed() {
		msgs *= 2
	}

	var st Stats
	startRound := 0
	if resume != nil {
		if st, err = k.restore(resume, pert); err != nil {
			return nil, Stats{}, err
		}
		startRound = resume.Round
		if k.delta && startRound > 0 {
			msgs = frontierMessages(k.g, k.senders)
		}
	}
	// The shard bodies are bound once: a method value handed to forShards
	// escapes, so binding it inside the loop would allocate every round.
	stepShard := k.stepClean
	if pert != nil {
		stepShard = k.stepPerturbed
		if k.seen == nil {
			k.seen = buildSeen(k.g, k.cur)
		}
		if k.delta && k.pending == nil {
			k.pending = make([][]bool, n)
			for v := range k.pending {
				k.pending[v] = make([]bool, k.g.Degree(v))
			}
			k.pc = make([]int32, n)
		}
	}
	commitShard := k.commit

	for r := startRound; r < cfg.maxRounds; r++ {
		if cerr := cfg.cancelled(); cerr != nil {
			return k.cur, st, cerr
		}
		round := r + 1
		handshakes := 0
		if pert != nil {
			k.p = pert.BeforeRound(round, k.g)
			if handshakes, err = k.applyFaults(); err != nil {
				return k.cur, st, err
			}
		}
		begin := time.Now()
		forShards(len(k.shards), stepShard)
		changed, delivered := 0, handshakes
		for i := range k.workers {
			if err := k.workers[i].err; err != nil {
				// A panicking step aborts the run cleanly: the barrier has
				// already joined every shard (the lowest shard's error wins,
				// so the reported node is deterministic), and the states
				// committed by previous rounds are returned with the error.
				return k.cur, st, err
			}
			changed += k.workers[i].changed
			delivered += k.workers[i].delivered
		}
		if k.delta {
			forShards(len(k.shards), commitShard)
		} else {
			k.cur, k.next = k.next, k.cur
		}
		roundMsgs := msgs
		if pert != nil {
			roundMsgs = delivered
		}
		st.Rounds++
		st.Messages += roundMsgs
		rs := RoundStats{Round: st.Rounds, Changed: changed, Messages: roundMsgs, Elapsed: time.Since(begin)}
		st.History = append(st.History, rs)
		if k.delta {
			msgs = k.advanceFrontier()
		}
		if sink != nil && st.Rounds%cfg.ckptEvery == 0 {
			sink(k.checkpoint(st))
		}
		if cfg.observer != nil {
			if oerr := observe(cfg.observer, rs); oerr != nil {
				return k.cur, st, oerr
			}
		}
		if changed == 0 && (pert == nil || !pert.Active(round+1)) {
			st.Stable = true
			return k.cur, st, nil
		}
	}
	st.Stable = false
	return k.cur, st, nil
}

// restore loads a checkpoint into a freshly initialized kernel: validate it,
// fast-forward the perturber through the executed rounds, then restore the
// states, views, retry bits and frontier. It returns the checkpoint's stats.
func (k *kernel[S]) restore(cp *Checkpoint[S], pert Perturber) (Stats, error) {
	n := k.g.N()
	if err := validateResume(cp, n, pert != nil, k.delta); err != nil {
		return Stats{}, err
	}
	if pert != nil {
		// Every fault decision is drawn inside BeforeRound, so replaying the
		// calls (and threading topology swaps) restores the perturber's
		// internal state — churned live graph, crash/skew timers, RNG
		// position — exactly.
		for r := 1; r <= cp.Round; r++ {
			p := pert.BeforeRound(r, k.g)
			if p.Topology != nil {
				if p.Topology.N() != n {
					return Stats{}, errNodeCount
				}
				k.g = p.Topology
			}
		}
		k.seen = snapshotSeen(cp.Seen)
	}
	copy(k.cur, cp.States)
	if k.delta && cp.Round > 0 {
		if err := k.restoreFrontier(cp, pert != nil); err != nil {
			return Stats{}, err
		}
	}
	return snapshotStats(cp.Stats), nil
}

// checkpoint snapshots the committed round. Full-mode checkpoints carry no
// frontier state; clean-path ones carry no views.
func (k *kernel[S]) checkpoint(st Stats) Checkpoint[S] {
	cp := Checkpoint[S]{
		Round:  st.Rounds,
		States: snapshotStates(k.cur),
		Seen:   snapshotSeen(k.seen),
		Stats:  snapshotStats(st),
	}
	if k.delta {
		cp.Delta = true
		cp.Changed = k.senders.appendBits(nil)
		cp.Frontier = k.frontier.appendBits(nil)
		cp.Pending = snapshotPending(k.pending)
	}
	return cp
}

// stepClean steps shard idx's frontier nodes against cur, writing into next
// and gathering neighbor states into the worker's reusable buffer. A
// panicking step is recovered and reported as an error naming the node, so
// a buggy algorithm aborts the run instead of killing the process from a
// worker goroutine.
func (k *kernel[S]) stepClean(idx int) {
	sh, ws := k.shards[idx], &k.workers[idx]
	g, cur, next, step, frontier, changedBits := k.g, k.cur, k.next, k.step, k.frontier, k.changed
	ws.err = nil
	v := 0
	defer ws.recoverStep(&v)
	changed, buf := 0, ws.scratch[:0]
	for wi := sh.lo >> 6; wi < (sh.hi+63)>>6; wi++ {
		base := wi << 6
		for word := frontier[wi]; word != 0; word &= word - 1 {
			v = base + bits.TrailingZeros64(word)
			buf = gather(buf[:0], g.Neighbors(v), cur)
			s, ch := step(v, cur[v], buf)
			next[v] = s
			if ch {
				changed++
				if changedBits != nil {
					changedBits.set(v)
				}
			}
		}
	}
	ws.changed, ws.scratch = changed, buf
}

// gather appends the states of row's nodes to buf. It stays out of line so
// its loop keeps registers of its own instead of reloading the step body's
// after every call.
//
//go:noinline
func gather[S any](buf []S, row []int32, cur []S) []S {
	for _, w := range row {
		buf = append(buf, cur[w])
	}
	return buf
}

// recoverStep, deferred by a step body, turns a panic in the step of node
// *v into the worker's round error. The body keeps v and its counters on
// its own stack: workers sit side by side in memory, and a per-node write
// to a shared cache line would serialize them.
func (ws *worker[S]) recoverStep(v *int) {
	if rec := recover(); rec != nil {
		ws.err = fmt.Errorf("runtime: step panicked at node %d: %v", *v, rec)
	}
}

// observe invokes the observer with panic recovery, so a faulty hook aborts
// the run with an error instead of crashing the process.
func observe(obs RoundObserver, rs RoundStats) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("runtime: observer panicked at round %d: %v", rs.Round, rec)
		}
	}()
	obs(rs)
	return nil
}

// KHopNeighborhoods returns, for each node, the sorted set of nodes within
// k hops (excluding the node itself) — the "local horizon" each node is
// assumed to know in localized solutions. The all-sources sweep runs
// depth-bounded BFS on a CSR snapshot with one shared scratch queue and
// distance array, resetting only the entries each source touched.
func KHopNeighborhoods(g *graph.Graph, k int) ([][]int, error) {
	if k < 0 {
		return nil, errors.New("runtime: negative k")
	}
	n := g.N()
	c := g.Freeze()
	out := make([][]int, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		queue = append(queue[:0], int32(v))
		dist[v] = 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			if int(du) == k {
				continue // horizon reached; do not expand further
			}
			for _, w := range c.Neighbors(int(u)) {
				if dist[w] == -1 {
					dist[w] = du + 1
					queue = append(queue, w)
				}
			}
		}
		if len(queue) > 1 {
			hood := make([]int, len(queue)-1)
			for i, u := range queue[1:] {
				hood[i] = int(u)
			}
			sort.Ints(hood)
			out[v] = hood
		}
		for _, u := range queue {
			dist[u] = -1
		}
	}
	return out, nil
}
