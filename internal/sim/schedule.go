// Package sim is the deterministic fault-injection and invariant-checking
// harness for the distributed kernel: the correctness backbone the paper's
// self-stabilization claims are validated against.
//
// The paper's labeling schemes (MIS/CDS marking, link reversal,
// distance-vector labels, hypercube safety levels) are claimed to be
// localized and self-stabilizing under churn; Casteigts et al. argue such
// claims are only meaningful relative to an explicit adversarial dynamics
// model. This package supplies that model: a Schedule describes a fault
// timeline (message loss, node crash/restart, edge churn, bounded
// asynchrony), a Perturber replays it bit-for-bit from a PCG seed through
// the runtime kernel's WithPerturber hook, Scenario couples a topology with
// an algorithm, and the Invariant registry checks the structural properties
// each algorithm promises — naming the offending node or edge when one is
// violated. Explore drives a full run; Minimize shrinks a failing schedule
// to a minimal concrete event list.
package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"structura/internal/graph"
)

// Event operation kinds. Every probabilistic fault the Perturber draws is
// materialized as one of these, so any run can be replayed — and shrunk —
// from a concrete event list alone.
const (
	OpAddEdge    = "add-edge"    // add support edge (U,V)
	OpRemoveEdge = "remove-edge" // remove support edge (U,V)
	OpCrash      = "crash"       // node U down for For rounds, then restarts with fresh state
	OpSkip       = "skip"        // node U skips its step for For rounds (bounded asynchrony)
	OpDrop       = "drop"        // the single message U -> V this round is lost
)

// Event is one concrete fault, pinned to a round.
type Event struct {
	Round int    `json:"round"`
	Op    string `json:"op"`
	U     int    `json:"u"`
	V     int    `json:"v,omitempty"`
	For   int    `json:"for,omitempty"` // crash/skip duration in rounds (default 1)
}

// ApplyEdge applies an add-edge or remove-edge event to g under the graph's
// edge-acceptance rule (graph.Graph.TryAddEdge, graph.Graph.RemoveEdge) and
// reports whether it applied. Every other op leaves g alone and reports
// false.
func (e Event) ApplyEdge(g *graph.Graph) bool {
	switch e.Op {
	case OpAddEdge:
		return g.TryAddEdge(e.U, e.V, 1)
	case OpRemoveEdge:
		return g.RemoveEdge(e.U, e.V)
	}
	return false
}

func (e Event) String() string {
	switch e.Op {
	case OpCrash, OpSkip:
		d := e.For
		if d <= 0 {
			d = 1
		}
		return fmt.Sprintf("r%d %s node %d for %d", e.Round, e.Op, e.U, d)
	case OpDrop:
		return fmt.Sprintf("r%d drop msg %d->%d", e.Round, e.U, e.V)
	default:
		return fmt.Sprintf("r%d %s (%d,%d)", e.Round, e.Op, e.U, e.V)
	}
}

// Schedule is a fault timeline: probabilistic background faults active
// during rounds 1..Horizon, plus scripted Events at exact rounds. The zero
// value perturbs nothing. Schedules are JSON-serializable; the seed-replay
// corpus under testdata/ stores them verbatim.
type Schedule struct {
	// Horizon is the adversary's window: probabilistic faults occur only in
	// rounds 1..Horizon, and the kernel will not declare quiescence before
	// the window (plus any pending crash recoveries) has passed.
	Horizon int `json:"horizon"`

	// Budget caps the kernel rounds for the whole run; 0 means
	// Horizon + 4n + 8, enough for every labeling scheme here to
	// restabilize after the window closes.
	Budget int `json:"budget,omitempty"`

	// MsgLoss is the per-message Bernoulli loss probability (each directed
	// state transfer, each round, independently).
	MsgLoss float64 `json:"msg_loss,omitempty"`

	// CrashProb is the per-node, per-round crash probability; a crashed
	// node is silent and frozen for Downtime rounds (min 1), then restarts
	// with a fresh init state.
	CrashProb float64 `json:"crash_prob,omitempty"`
	Downtime  int     `json:"downtime,omitempty"`

	// SkewProb is the per-node, per-round probability of falling behind:
	// the node skips 1..MaxSkew consecutive rounds (bounded asynchrony).
	SkewProb float64 `json:"skew_prob,omitempty"`
	MaxSkew  int     `json:"max_skew,omitempty"`

	// Edge churn: every ChurnEvery rounds (default 1) within the horizon,
	// ChurnRemove random existing edges are removed and ChurnAdd random
	// absent edges are added to the live support graph.
	ChurnAdd    int `json:"churn_add,omitempty"`
	ChurnRemove int `json:"churn_remove,omitempty"`
	ChurnEvery  int `json:"churn_every,omitempty"`

	// Events are scripted faults applied at their exact round, before the
	// round's probabilistic draws. A schedule of Events with every
	// probability zero is a fully concrete, replayable fault trace.
	Events []Event `json:"events,omitempty"`
}

// Validate checks every field against its documented domain, naming the
// offending JSON field so a hand-written schedule fails with an actionable
// message instead of a silent misbehavior (a negative probability never
// fires; a zero-round event never applies).
func (s Schedule) Validate() error {
	if s.Horizon < 0 {
		return fmt.Errorf("sim: schedule field %q must be >= 0, got %d", "horizon", s.Horizon)
	}
	if s.Budget < 0 {
		return fmt.Errorf("sim: schedule field %q must be >= 0, got %d", "budget", s.Budget)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"msg_loss", s.MsgLoss},
		{"crash_prob", s.CrashProb},
		{"skew_prob", s.SkewProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("sim: schedule field %q must be a probability in [0,1], got %v", p.name, p.v)
		}
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"downtime", s.Downtime},
		{"max_skew", s.MaxSkew},
		{"churn_add", s.ChurnAdd},
		{"churn_remove", s.ChurnRemove},
		{"churn_every", s.ChurnEvery},
	} {
		if c.v < 0 {
			return fmt.Errorf("sim: schedule field %q must be >= 0, got %d", c.name, c.v)
		}
	}
	for i, e := range s.Events {
		prefix := fmt.Sprintf("sim: schedule field \"events[%d]\"", i)
		switch e.Op {
		case OpAddEdge, OpRemoveEdge, OpCrash, OpSkip, OpDrop:
		case "":
			return fmt.Errorf("%s: missing %q", prefix, "op")
		default:
			return fmt.Errorf("%s: unknown %q %q (want %s, %s, %s, %s or %s)",
				prefix, "op", e.Op, OpAddEdge, OpRemoveEdge, OpCrash, OpSkip, OpDrop)
		}
		if e.Round < 1 {
			return fmt.Errorf("%s: %q must be >= 1, got %d", prefix, "round", e.Round)
		}
		if e.For < 0 {
			return fmt.Errorf("%s: %q must be >= 0, got %d", prefix, "for", e.For)
		}
	}
	return nil
}

// DecodeSchedule parses a schedule document strictly: unknown fields are
// rejected (catching typos like "churn_ad") and the decoded schedule is
// validated field by field.
func DecodeSchedule(raw []byte) (Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var sch Schedule
	if err := dec.Decode(&sch); err != nil {
		return Schedule{}, fmt.Errorf("sim: schedule does not parse: %w", err)
	}
	if err := sch.Validate(); err != nil {
		return Schedule{}, err
	}
	return sch, nil
}

// maxEventRound returns the latest scripted round (0 if none).
func (s Schedule) maxEventRound() int {
	m := 0
	for _, e := range s.Events {
		r := e.Round
		if e.Op == OpCrash || e.Op == OpSkip {
			d := e.For
			if d <= 0 {
				d = 1
			}
			r += d // the recovery tail counts as adversary activity
		}
		if r > m {
			m = r
		}
	}
	return m
}

// budget resolves the round budget for a run on an n-node graph.
func (s Schedule) budget(n int) int {
	if s.Budget > 0 {
		return s.Budget
	}
	return s.Horizon + 4*n + 8
}
