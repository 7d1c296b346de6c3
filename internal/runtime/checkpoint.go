package runtime

import (
	"context"
	"errors"
	"fmt"
)

// Checkpoint is a serializable snapshot of a run's kernel state after a
// committed round: resuming from it continues the run exactly where it
// stopped, producing per-round history and final states bit-identical to
// an uninterrupted run (RoundStats.Elapsed, a wall-clock measure, is the
// one field equality claims must ignore). The one round loop writes it in
// both modes; what it holds depends on the mode and path.
//
// Seen carries the per-node neighbor-view buffers of the perturbed path
// (WithPerturber) and is nil for checkpoints taken on the clean path.
// Checkpoints are JSON-serializable whenever S is.
//
// Delta, Changed, Frontier and Pending carry the frontier state of runs
// under WithDelta: Changed is the checkpoint round's changed set (the next
// round's senders), Frontier the already-built next-round frontier, and
// Pending the per-link suppressed-delivery retry bits of the perturbed
// path (row-aligned to the checkpoint round's adjacency, like Seen). Full
// mode pins its frontier to every node and keeps no retry state, so it
// writes none of these fields. A checkpoint resumes only into a run of the
// same mode: a full-mode checkpoint lacks the state a delta run needs.
type Checkpoint[S any] struct {
	Round    int      `json:"round"`
	States   []S      `json:"states"`
	Seen     [][]S    `json:"seen,omitempty"`
	Stats    Stats    `json:"stats"`
	Delta    bool     `json:"delta,omitempty"`
	Changed  []int    `json:"changed,omitempty"`
	Frontier []int    `json:"frontier,omitempty"`
	Pending  [][]bool `json:"pending,omitempty"`
}

// WithCheckpoints registers a checkpoint sink: after every `every`-th
// committed round (every <= 0 means every round) the kernel hands the sink
// a deep-copied Checkpoint that remains valid after the run moves on. The
// sink is called from the coordinating goroutine between rounds and must
// not call back into the run. The type parameter must match the run's
// state type or the run fails with an error.
func WithCheckpoints[S any](every int, sink func(Checkpoint[S])) Option {
	if every <= 0 {
		every = 1
	}
	return func(c *config) {
		c.ckptEvery = every
		c.ckptSink = sink
	}
}

// WithResume restarts a run from a Checkpoint instead of round zero. The
// graph, init, step, perturber, and round budget must be the ones the
// checkpointed run used: the kernel replays the perturber's fault timeline
// up to the checkpoint round (perturbers draw all randomness in BeforeRound,
// so a fresh perturber built from the same seed and schedule fast-forwards
// deterministically) and then continues stepping from the checkpointed
// states. WithMaxRounds still counts from round zero, so a resumed run
// stops at the same round the uninterrupted run would.
func WithResume[S any](cp Checkpoint[S]) Option {
	return func(c *config) { c.resume = cp }
}

// WithContext threads a cancellation context through the run: the kernel
// checks it between rounds and aborts with ctx.Err(), returning the states
// committed so far. Combine with WithCheckpoints to resume a cancelled run
// from its last consistent round instead of round zero.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// cancelled reports the context error, if the run's context is done.
func (c *config) cancelled() error {
	if c.ctx == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}

// checkpointPlumbing type-asserts the non-generic config fields back to the
// run's state type. A mismatch (checkpointing a []float64 run with a sink
// for []int states) is a caller bug reported as an error, not a panic.
func checkpointPlumbing[S any](cfg *config) (sink func(Checkpoint[S]), resume *Checkpoint[S], err error) {
	if cfg.ckptSink != nil {
		s, ok := cfg.ckptSink.(func(Checkpoint[S]))
		if !ok {
			return nil, nil, errors.New("runtime: checkpoint sink state type does not match the run")
		}
		sink = s
	}
	if cfg.resume != nil {
		cp, ok := cfg.resume.(Checkpoint[S])
		if !ok {
			return nil, nil, errors.New("runtime: resume checkpoint state type does not match the run")
		}
		resume = &cp
	}
	return sink, resume, nil
}

// validateResume sanity-checks a checkpoint against the run it is resumed
// into. delta is whether the resuming run steps under WithDelta; a mode
// mismatch past round zero is rejected rather than silently diverging.
func validateResume[S any](cp *Checkpoint[S], n int, needSeen, delta bool) error {
	if cp.Round < 0 {
		return errors.New("runtime: resume checkpoint has a negative round")
	}
	if len(cp.States) != n {
		return fmt.Errorf("runtime: resume checkpoint has %d states for %d nodes", len(cp.States), n)
	}
	if cp.Stats.Rounds != cp.Round {
		return fmt.Errorf("runtime: resume checkpoint stats (%d rounds) disagree with its round %d",
			cp.Stats.Rounds, cp.Round)
	}
	if needSeen && cp.Seen == nil && cp.Round > 0 {
		return errors.New("runtime: resume into a perturbed run needs a checkpoint taken under the perturber (Seen views missing)")
	}
	if cp.Round > 0 && cp.Delta != delta {
		if delta {
			return errors.New("runtime: resume into a WithDelta run needs a checkpoint taken under WithDelta (frontier state missing)")
		}
		return errors.New("runtime: checkpoint taken under WithDelta cannot resume a full-kernel run")
	}
	return nil
}

// snapshotStats deep-copies Stats so a checkpoint stays immutable while the
// run keeps appending history.
func snapshotStats(st Stats) Stats {
	out := st
	out.History = append([]RoundStats(nil), st.History...)
	return out
}

// snapshotStates deep-copies the state array (element values are copied;
// states holding pointers share referents, as they do between rounds).
func snapshotStates[S any](states []S) []S {
	return append([]S(nil), states...)
}

// snapshotSeen deep-copies the perturbed path's per-node view buffers.
func snapshotSeen[S any](seen [][]S) [][]S {
	if seen == nil {
		return nil
	}
	out := make([][]S, len(seen))
	for i, row := range seen {
		out[i] = append([]S(nil), row...)
	}
	return out
}

// snapshotPending deep-copies the perturbed delta path's per-link retry bits.
func snapshotPending(pending [][]bool) [][]bool {
	if pending == nil {
		return nil
	}
	out := make([][]bool, len(pending))
	for i, row := range pending {
		out[i] = make([]bool, len(row))
		copy(out[i], row)
	}
	return out
}
