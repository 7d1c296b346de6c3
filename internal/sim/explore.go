package sim

import (
	"errors"
	"fmt"
)

// Result is one fault-injected run, judged.
type Result struct {
	Scenario string
	Seed     uint64
	Schedule Schedule
	World    *World

	// Quiesced reports whether the run restabilized within its budget after
	// the fault window closed.
	Quiesced bool

	// LastFault is the last round at which a fault applied (0 if none).
	LastFault int

	// RecoveryRounds is the rounds-to-restabilize measure: how many rounds
	// after the last fault the system kept changing state, read off
	// Stats.History. -1 when the run never quiesced.
	RecoveryRounds int

	Violations []Violation
}

func (r *Result) String() string {
	verdict := "OK"
	if len(r.Violations) > 0 {
		verdict = fmt.Sprintf("%d violation(s)", len(r.Violations))
	}
	return fmt.Sprintf("%s seed=%d rounds=%d quiesced=%v recovery=%d: %s",
		r.Scenario, r.Seed, r.World.Stats.Rounds, r.Quiesced, r.RecoveryRounds, verdict)
}

// Explore runs a named scenario under (seed, sch) and checks the invariants
// (all registered ones when none are passed). The same (scenario, seed, sch)
// triple replays the identical Result — Explore IS the replay tool: paste a
// failing seed back in and the run reproduces byte-for-byte.
func Explore(scenario string, seed uint64, sch Schedule, invs ...Invariant) (*Result, error) {
	return ExploreWith(scenario, seed, sch, 0, invs...)
}

// ExploreWith is Explore with the kernel worker count pinned (0 = auto).
// Results are identical for every worker count; tests assert exactly that.
func ExploreWith(scenario string, seed uint64, sch Schedule, workers int, invs ...Invariant) (*Result, error) {
	sc, err := ScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	w, err := sc.Run(seed, sch, workers)
	if err != nil {
		return nil, err
	}
	if len(invs) == 0 {
		invs = Invariants()
	}
	var violations []Violation
	for _, inv := range invs {
		violations = append(violations, inv.Check(w)...)
	}
	return &Result{
		Scenario:       scenario,
		Seed:           seed,
		Schedule:       sch,
		World:          w,
		Quiesced:       w.Stats.Stable,
		LastFault:      w.LastFault,
		RecoveryRounds: RecoveryRounds(w),
		Violations:     violations,
	}, nil
}

// RecoveryRounds measures rounds-to-restabilize from Stats.History: the gap
// between the last fault and the last round that still changed any state,
// -1 when the run never stabilized. The async executor reports the same
// measure off its synthesized History.
func RecoveryRounds(w *World) int {
	if !w.Stats.Stable {
		return -1
	}
	if w.LastFault == 0 {
		return 0 // nothing to recover from
	}
	lastActive := 0
	for _, rs := range w.Stats.History {
		if rs.Changed > 0 {
			lastActive = rs.Round
		}
	}
	if lastActive <= w.LastFault {
		return 0
	}
	return lastActive - w.LastFault
}

// ConcreteReplay strips a schedule down to scripted events only, keeping
// the horizon/budget windows so replay runs exactly as long as the
// original: Minimize's reproducers, and the schedule async.Compare replays
// a traced synchronous run under.
func ConcreteReplay(sch Schedule, events []Event) Schedule {
	sch.MsgLoss = 0
	sch.CrashProb = 0
	sch.SkewProb = 0
	sch.ChurnAdd = 0
	sch.ChurnRemove = 0
	sch.Events = events
	return sch
}

// Minimize shrinks a failing run to a minimal concrete fault schedule: it
// re-runs the scenario with tracing, replaces every probabilistic draw with
// the recorded event list, and then delta-debugs the list down to a locally
// minimal set that still violates an invariant. The returned schedule has
// all probabilities zeroed — it is a deterministic reproducer independent of
// the RNG.
func Minimize(scenario string, seed uint64, sch Schedule, invs ...Invariant) (Schedule, *Result, error) {
	base, err := Explore(scenario, seed, sch, invs...)
	if err != nil {
		return Schedule{}, nil, err
	}
	if len(base.Violations) == 0 {
		return Schedule{}, base, errors.New("sim: run does not violate any invariant; nothing to minimize")
	}
	fails := func(events []Event) (*Result, bool) {
		r, rerr := Explore(scenario, seed, ConcreteReplay(sch, events), invs...)
		if rerr != nil {
			return nil, false
		}
		return r, len(r.Violations) > 0
	}
	events := base.World.Trace
	_, ok := fails(events)
	if !ok {
		// The trace alone does not reproduce the failure (should not happen:
		// every draw is materialized). Fall back to the original result.
		return sch, base, nil
	}
	// ddmin-style pass: sweep chunks of shrinking size; a successful drop
	// keeps the offset in place (a new chunk slid into it), a failed one
	// advances past the chunk.
	for chunk := (len(events) + 1) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo < len(events); {
			hi := lo + chunk
			if hi > len(events) {
				hi = len(events)
			}
			cand := make([]Event, 0, len(events)-(hi-lo))
			cand = append(cand, events[:lo]...)
			cand = append(cand, events[hi:]...)
			if _, bad := fails(cand); bad {
				events = cand
			} else {
				lo += chunk
			}
		}
	}
	min := ConcreteReplay(sch, events)
	// Trim the adversary window to the surviving events so the reproducer is
	// tight — but only if the tighter window still reproduces the failure
	// (a smaller horizon also shrinks the default round budget).
	if me := min.maxEventRound(); me < min.Horizon {
		trimmed := min
		trimmed.Horizon = me
		if r, rerr := Explore(scenario, seed, trimmed, invs...); rerr == nil && len(r.Violations) > 0 {
			min = trimmed
		}
	}
	// Re-validate against the original failure before handing the schedule
	// out as a reproducer: a fresh replay of the minimized schedule must
	// still violate one of the invariants the base run violated. ddmin only
	// requires "some violation" at each step, so without this check the
	// shrinker can walk to a different failure than the one being debugged.
	verify, err := Explore(scenario, seed, min, invs...)
	if err != nil {
		return Schedule{}, nil, fmt.Errorf("sim: minimized schedule no longer replays: %w", err)
	}
	if len(verify.Violations) == 0 {
		return Schedule{}, nil, errors.New(
			"sim: minimization diverged: the minimized schedule no longer violates any invariant")
	}
	baseInvs := make(map[string]bool, len(base.Violations))
	for _, v := range base.Violations {
		baseInvs[v.Invariant] = true
	}
	shared := false
	for _, v := range verify.Violations {
		if baseInvs[v.Invariant] {
			shared = true
			break
		}
	}
	if !shared {
		return Schedule{}, nil, fmt.Errorf(
			"sim: minimization diverged: minimized schedule violates %s, the original run violated %s",
			invariantNames(verify.Violations), invariantNames(base.Violations))
	}
	return min, verify, nil
}

// invariantNames lists the distinct invariant names in a violation set, in
// first-appearance order.
func invariantNames(viols []Violation) string {
	var names []string
	seen := map[string]bool{}
	for _, v := range viols {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			names = append(names, v.Invariant)
		}
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
