// Package runtime provides the synchronous round-based execution kernel of
// §IV: nodes interact only with their restricted vicinity, exchanging state
// with neighbors once per round. Distributed labeling algorithms (MIS, CDS,
// distance-vector, safety levels) run on this kernel, and its round/message
// accounting backs the paper's complexity claims.
//
// Within a round every node's step is a pure function of the previous
// round's states, so the kernel is free to evaluate nodes in any order —
// including concurrently. Run shards the node set across workers when the
// graph is large enough (or when WithParallelism asks for it) and produces
// results bit-for-bit identical to the sequential schedule.
package runtime

import (
	"context"
	"errors"
	"fmt"
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
// within a round. p <= 0 restores the automatic choice (GOMAXPROCS, with a
// sequential fallback for small graphs); p == 1 forces the sequential
// path; p > 1 forces sharded execution even on graphs below the automatic
// cutoff, which is how tests exercise the parallel path deterministically.
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

// RunCSR is Run on a pre-built CSR snapshot: the steady-state round path
// with the freeze cost amortized away. Neighbor states are gathered through
// zero-copy CSR views, so a round allocates nothing beyond the one-time
// state and scratch arrays.
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
	if workers > n {
		workers = n
	}
	if cfg.delta {
		if cfg.perturber != nil {
			return runDeltaPerturbed(g, init, step, cfg, workers)
		}
		return runDelta(g, init, step, cfg, workers)
	}
	if cfg.perturber != nil {
		return runPerturbed(g, init, step, cfg, workers)
	}
	sink, resume, err := checkpointPlumbing[S](&cfg)
	if err != nil {
		return nil, Stats{}, err
	}

	cur := make([]S, n)
	for v := 0; v < n; v++ {
		cur[v] = init(v)
	}
	next := make([]S, n)
	// One message per directed edge per round: a directed edge carries one
	// state transfer, an undirected edge is two directed links (one each way).
	msgsPerRound := g.M()
	if !g.Directed() {
		msgsPerRound *= 2
	}

	var st Stats
	startRound := 0
	if resume != nil {
		if err := validateResume(resume, n, false, false); err != nil {
			return nil, Stats{}, err
		}
		copy(cur, resume.States)
		st = snapshotStats(resume.Stats)
		startRound = resume.Round
	}
	var shards []shard
	var scratches [][]S
	if workers > 1 {
		shards = makeShards(n, workers)
		scratches = make([][]S, len(shards))
	}
	scratch := make([]S, 0, 16)
	for r := startRound; r < cfg.maxRounds; r++ {
		if cerr := cfg.cancelled(); cerr != nil {
			return cur, st, cerr
		}
		begin := time.Now()
		var changed int
		var err error
		if workers > 1 {
			changed, err = stepShards(g, cur, next, step, shards, scratches)
		} else {
			changed, err = stepRange(g, cur, next, step, 0, n, &scratch)
		}
		if err != nil {
			// A panicking step aborts the run cleanly: the barrier has
			// already joined every shard, and the states committed by
			// previous rounds are returned with the error.
			return cur, st, err
		}
		st.Rounds++
		st.Messages += msgsPerRound
		cur, next = next, cur
		rs := RoundStats{Round: st.Rounds, Changed: changed, Messages: msgsPerRound, Elapsed: time.Since(begin)}
		st.History = append(st.History, rs)
		if sink != nil && st.Rounds%cfg.ckptEvery == 0 {
			sink(Checkpoint[S]{Round: st.Rounds, States: snapshotStates(cur), Stats: snapshotStats(st)})
		}
		if cfg.observer != nil {
			if oerr := observe(cfg.observer, rs); oerr != nil {
				return cur, st, oerr
			}
		}
		if changed == 0 {
			st.Stable = true
			return cur, st, nil
		}
	}
	st.Stable = false
	return cur, st, nil
}

type shard struct{ lo, hi int }

// makeShards partitions [0, n) into contiguous, near-equal ranges — one per
// worker, keeping each worker's reads of cur clustered for cache locality.
func makeShards(n, workers int) []shard {
	out := make([]shard, workers)
	for w := 0; w < workers; w++ {
		out[w] = shard{lo: w * n / workers, hi: (w + 1) * n / workers}
	}
	return out
}

// stepRange steps nodes [lo, hi) against the cur snapshot, writing into
// next, and returns how many reported a change. scratch is the caller's
// reusable neighbor-state buffer (returned grown in place). A panicking
// step is recovered and reported as an error naming the offending node, so
// a buggy algorithm aborts the run instead of killing the process from a
// worker goroutine.
func stepRange[S any](
	g *graph.CSR,
	cur, next []S,
	step func(v int, self S, neighbors []S) (S, bool),
	lo, hi int,
	scratch *[]S,
) (changed int, err error) {
	buf := (*scratch)[:0]
	v := lo
	defer func() {
		*scratch = buf
		if rec := recover(); rec != nil {
			err = fmt.Errorf("runtime: step panicked at node %d: %v", v, rec)
		}
	}()
	for ; v < hi; v++ {
		buf = buf[:0]
		for _, w := range g.Neighbors(v) {
			buf = append(buf, cur[w])
		}
		s, ch := step(v, cur[v], buf)
		next[v] = s
		if ch {
			changed++
		}
	}
	return changed, nil
}

// stepShards fans one round out across the shards and merges the per-worker
// changed counts. Workers only read cur and write disjoint ranges of next,
// so the result is identical to the sequential schedule; the WaitGroup
// barrier publishes every write before the coordinator resumes.
func stepShards[S any](
	g *graph.CSR,
	cur, next []S,
	step func(v int, self S, neighbors []S) (S, bool),
	shards []shard,
	scratches [][]S,
) (int, error) {
	var wg sync.WaitGroup
	counts := make([]int, len(shards))
	errs := make([]error, len(shards))
	for w, sh := range shards {
		wg.Add(1)
		go func(w int, sh shard) {
			defer wg.Done()
			counts[w], errs[w] = stepRange(g, cur, next, step, sh.lo, sh.hi, &scratches[w])
		}(w, sh)
	}
	wg.Wait()
	// Lowest shard's error wins so the reported node is deterministic.
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
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
