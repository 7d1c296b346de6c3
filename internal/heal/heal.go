// Package heal is the supervision layer that turns the one-shot labeling
// engines (MIS, CDS, distance vector, hypercube safety levels, link
// reversal) into long-running, self-healing ones. The paper's premise is
// uncovering structure in *dynamic* environments, and the chaos harness
// showed what happens without maintenance: under sustained churn the MIS
// election provably fails to self-stabilize and distance vectors count to
// infinity. Following the maintenance-protocol view of dynamic-network
// theory (Casteigts et al.), a Supervisor runs the detect → repair →
// escalate state machine against a sim fault timeline:
//
//	detect   — cheap local checks on exactly the nodes whose rule inputs
//	           each churn event changed (complete for edge churn: an edge
//	           flip changes only its endpoints' rows, plus whatever labels
//	           the engine moves on notice), plus periodic full sweeps of
//	           the sim invariant registry as a safety net;
//	repair   — an engine-specific localized fix confined to the violated
//	           neighborhood, under an explicit Budget (max repair rounds,
//	           max touched nodes);
//	escalate — when the budget is exhausted or the repair fails to verify,
//	           a full recompute from the live topology.
//
// The Report quantifies what the paper's maintenance story needs: detection
// latency, repair locality (fraction of nodes touched), and localized
// repair rounds versus full-recompute rounds.
package heal

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"structura/internal/graph"
	"structura/internal/sim"
)

// Budget bounds one localized repair: at most MaxRounds repair sweeps and
// MaxTouched distinct touched nodes. A bound <= 0 is unbounded. A repair
// that would exceed either bound stops and reports !OK, which the
// Supervisor converts into an escalation to full recompute.
//
// Ctx, when non-nil, threads cancellation through the repair itself
// (mirroring runtime.WithContext): engines check it between repair sweeps
// and stop mid-cascade when it fires, reporting !OK. Cancellation is NOT a
// budget exhaustion — the Supervisor re-checks its own context after every
// repair and surfaces ctx.Err() instead of escalating, so a shutdown during
// an active repair aborts cleanly rather than triggering the full recompute
// it would also have to abandon. The Supervisor fills this field from its
// own Ctx; callers invoking Engine.Repair directly may set it themselves.
type Budget struct {
	MaxRounds  int
	MaxTouched int
	Ctx        context.Context
}

// Err reports the budget context's error if the context is done, nil
// otherwise (including for the nil context). Engines whose repair loops
// live in this package poll it between repair moves.
func (b Budget) Err() error {
	if b.Ctx == nil {
		return nil
	}
	select {
	case <-b.Ctx.Done():
		return b.Ctx.Err()
	default:
		return nil
	}
}

// RepairOutcome is what an engine's localized repair reports back.
type RepairOutcome struct {
	Touched []int // distinct nodes examined or moved, sorted
	Rounds  int   // repair sweeps (the localized analogue of kernel rounds)
	OK      bool  // false: budget exhausted mid-repair, caller must escalate

	// Recheck names the nodes the supervisor's verify passes to CheckLocal
	// after an OK repair: every node whose detector verdict the repair may
	// have changed. Detection judged every node whose verdict the batch
	// moved, and every violation became a seed, so only the seeds and the
	// nodes whose rule reads a label the repair changed can have a new
	// verdict. An engine whose rule reads its neighbors' labels names that
	// closure itself (distvec: seeds ∪ N[moved]; hypercube: seeds ∪
	// N[Touched]). Nil means Touched plus the batch's dirty set, for
	// engines whose repair re-judges what it moves before it stops (cds
	// checks each removal against the whole CDS property, reversal runs
	// until no sink is left).
	Recheck []int
}

// Engine is a supervised labeling engine: a live structure over a churning
// support graph with local detection, localized repair, and full recompute.
// Implementations live in this package, one per labeling scheme.
//
// An engine keeps labels, never topology. The support graph belongs to its
// owner — a Supervisor applying events, or a serving layer whose
// write-ahead log is the graph's only mutator — which changes it under the
// graph's edge-acceptance rule and then notifies the engine through Apply.
// Several engines may share one graph.
//
// An engine moves labels only
//   - in Apply, at the event's endpoints;
//   - in Repair, within the outcome's Touched;
//   - anywhere in Recompute.
//
// An owner that republishes labels after each batch therefore compares
// only the batch's endpoints and every repair's Touched (Report.Touched),
// or every node once the batch escalated.
type Engine interface {
	Name() string

	// Live returns the support topology the labels describe. The engine
	// only reads it.
	Live() *graph.Graph

	// Apply notifies the engine of one event and returns exactly the nodes
	// whose detector verdict the event may have changed, plus whether the
	// engine took note of it: the endpoints, whose rows changed, and every
	// node whose rule reads a label Apply moved (the distvec engine adds
	// the neighbors of an endpoint it poisoned). An edge event has already
	// been applied to Live() — when a batch is notified, the whole batch
	// has — so the engine updates only its own labels and judges against
	// the topology as it stands now. An edge event the acceptance rule
	// rejected may be notified too and must leave correct labels correct.
	// Events that change no topology (crash, skip, drop) are for engines
	// that model them; the others report false.
	Apply(e sim.Event) (dirty []int, applied bool)

	// CheckLocal judges exactly the given nodes by the engine's local
	// rule (repeats and out-of-range nodes are skipped) and returns the
	// violations among them. That is complete for edge churn: every node
	// satisfied its rule before the batch (Recompute and a verified heal
	// leave it so, and a warm start's labels were published that way), and
	// the sets Apply and Repair return hold every node whose rule inputs
	// moved since, so no violation exists outside them.
	CheckLocal(dirty []int) []sim.Violation

	// Repair attempts a localized fix for the violations under the budget,
	// and names in the outcome's Recheck the nodes an OK repair is verified
	// on (see RepairOutcome).
	Repair(viols []sim.Violation, b Budget) RepairOutcome

	// Recompute rebuilds the structure from the live topology, returning
	// the equivalent round cost. An error means even a full rebuild cannot
	// restore the invariant (e.g. the support was partitioned).
	Recompute() (rounds int, err error)

	// Snapshot assembles the sim.World the invariant registry checks —
	// the ground truth the supervisor's final sweep is judged by.
	Snapshot() *sim.World
}

// NewEngine constructs a supervised engine by scenario name over the
// seed's topology — the same topology the sim scenario of that name uses,
// so chaos findings replay under supervision.
func NewEngine(name string, seed uint64) (Engine, error) {
	switch name {
	case "mis":
		return newMISEngine(seed)
	case "cds":
		return newCDSEngine(seed)
	case "distvec":
		return newDistVecEngine(seed)
	case "hypercube":
		return newCubeEngine(seed)
	case "reversal":
		return newReversalEngine(seed)
	}
	return nil, fmt.Errorf("heal: unknown engine %q (want mis, cds, distvec, hypercube or reversal)", name)
}

// EngineNames lists the supervised engines.
func EngineNames() []string {
	return []string{"cds", "distvec", "hypercube", "mis", "reversal"}
}

// Detection records one transition of the state machine from monitoring to
// repairing.
type Detection struct {
	Round      int    // round the violation was detected
	FaultRound int    // most recent round a fault applied
	Latency    int    // Round - FaultRound: 0 for dirty-tracking, up to SweepEvery for sweeps
	Violations int    // violations in the batch
	First      string // first violation, for reporting
}

// Report is a supervised run, quantified.
type Report struct {
	Engine string
	Nodes  int
	Rounds int // supervision rounds executed
	Events int // churn events applied

	Detections []Detection
	MaxLatency int // max detection latency over all detections

	Repairs        int     // localized repairs attempted
	RepairRounds   int     // total localized repair sweeps
	RepairTouched  int     // total distinct nodes touched by successful repairs
	MaxTouchedFrac float64 // worst repair locality among successful repairs

	Escalations     int // budget exhaustions or failed verifications
	RecomputeRounds int // total full-recompute round cost

	// Touched is the Touched of the pass's repair, if one was attempted.
	// With the events' endpoints or HealDirty's seeds it bounds the nodes
	// whose labels moved, unless Escalations > 0 (see Engine). ApplyBatch,
	// HealBatch and HealDirty set it; Run keeps one report for the whole
	// timeline and leaves it nil, so it does not grow with every repair.
	Touched []int

	Sweeps   int             // periodic full invariant sweeps run
	Standing []sim.Violation // violations left after the final sweep
}

// Supervisor drives one engine through a fault timeline. The zero value of
// the tuning fields is usable: an unbounded budget and no periodic sweeps
// (local detection is complete for edge churn, and a final sweep always
// runs).
type Supervisor struct {
	Engine Engine
	Budget Budget

	// SweepEvery > 0 runs a full invariant-registry sweep every that many
	// rounds even when local detection stayed quiet — the safety net that
	// bounds detection latency if a local detector misses.
	SweepEvery int

	// ForceRecompute disables localized repair: every detection escalates
	// straight to full recompute. The comparison baseline for the
	// repair-vs-recompute experiment.
	ForceRecompute bool

	// Ctx, when non-nil, cancels the supervision (mirroring
	// runtime.WithContext): Run checks it between rounds, the batch entry
	// points between events, and all thread it into each repair's Budget
	// so an active repair stops mid-cascade. A cancelled run returns the report
	// accumulated so far together with ctx.Err(); no escalation happens on
	// cancellation, so the engine's labels are simply left where the repair
	// stopped — callers must not publish them.
	Ctx context.Context
}

// cancelled reports the supervisor context's error, if any.
func (s *Supervisor) cancelled() error {
	if s.Ctx == nil {
		return nil
	}
	select {
	case <-s.Ctx.Done():
		return s.Ctx.Err()
	default:
		return nil
	}
}

// ErrNoEngine reports a Supervisor run without an engine.
var ErrNoEngine = errors.New("heal: supervisor has no engine")

// Run supervises the engine through the (seed, schedule) fault timeline:
// sch's scripted edge events and churn draws stream in round by round (the
// same FaultStream discipline the CDS and reversal scenarios use), and
// every round executes one detect → repair → escalate cycle. The final
// report includes a full invariant sweep; a healthy supervised engine ends
// with Standing empty.
func (s *Supervisor) Run(seed uint64, sch sim.Schedule) (*Report, error) {
	if s.Engine == nil {
		return nil, ErrNoEngine
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	eng := s.Engine
	rep := &Report{Engine: eng.Name(), Nodes: eng.Live().N()}
	fs := sim.NewFaultStream(seed, sch)
	lastFault := 0
	inIncident := false
	var pending []int // nodes of an unresolved incident, retried every round
	for round := 1; round <= fs.MaxRound(); round++ {
		if cerr := s.cancelled(); cerr != nil {
			return rep, cerr
		}
		rep.Rounds = round
		dirty := append([]int(nil), pending...)
		for _, e := range fs.RoundEvents(round, eng.Live()) {
			if d, applied := s.applyEvent(e); applied {
				rep.Events++
				lastFault = round
				dirty = append(dirty, d...)
			}
		}
		viols := eng.CheckLocal(dirty)
		if len(viols) == 0 && s.SweepEvery > 0 && round%s.SweepEvery == 0 {
			rep.Sweeps++
			viols = s.sweep()
		}
		if len(viols) == 0 {
			pending, inIncident = nil, false
			continue
		}
		if !inIncident {
			det := Detection{
				Round:      round,
				FaultRound: lastFault,
				Latency:    round - lastFault,
				Violations: len(viols),
				First:      viols[0].String(),
			}
			rep.Detections = append(rep.Detections, det)
			if det.Latency > rep.MaxLatency {
				rep.MaxLatency = det.Latency
			}
			inIncident = true
		}
		// An incident that survives repair AND recompute (a partitioned
		// support) stays pending: it is retried every following round, so a
		// reconnecting edge heals it without waiting for a sweep. The
		// distvec and hypercube recomputes cannot fail, so for them pending
		// stays empty and dirty holds only what Apply returned.
		left, _, rerr := s.resolve(rep, viols, dirty)
		if rerr != nil {
			return rep, rerr
		}
		pending = violationNodes(left)
		inIncident = len(pending) > 0
	}
	rep.Standing = s.sweep()
	return rep, nil
}

// applyEvent applies one event to the engine's topology under the graph's
// edge-acceptance rule and notifies the engine. An edge event the rule
// rejects is dropped unheard.
func (s *Supervisor) applyEvent(e sim.Event) ([]int, bool) {
	if (e.Op == sim.OpAddEdge || e.Op == sim.OpRemoveEdge) && !e.ApplyEdge(s.Engine.Live()) {
		return nil, false
	}
	return s.Engine.Apply(e)
}

// ApplyBatch drives one detect → repair → escalate cycle for an ad-hoc
// batch of edge events outside any fault timeline: each event is applied
// to the engine's Live() topology under the acceptance rule, the engine is
// notified of each one that applied, and the batch then heals. Events'
// Round fields are ignored. The returned report covers just this batch
// (Rounds is 1; Standing lists violations that survived repair AND
// recompute, e.g. a disconnected support). On cancellation via s.Ctx the
// batch is abandoned where it stands and ctx.Err() is returned: the
// engine's labels may be mid-repair, so the caller must not publish them.
func (s *Supervisor) ApplyBatch(events []sim.Event) (*Report, error) {
	return s.batch(events, s.applyEvent)
}

// HealBatch is ApplyBatch for a batch the topology's owner has already
// applied to Live() — the serving layer's path, where one writer-owned
// graph backs every engine. Every event is notified, accepted or not, and
// the engine judges each against the post-batch topology; the batch then
// heals exactly as in ApplyBatch.
func (s *Supervisor) HealBatch(events []sim.Event) (*Report, error) {
	return s.batch(events, func(e sim.Event) ([]int, bool) { return s.Engine.Apply(e) })
}

// batch notifies the engine of every event through notify, then runs one
// detect → repair → escalate cycle over the nodes the events dirtied.
func (s *Supervisor) batch(events []sim.Event, notify func(sim.Event) ([]int, bool)) (*Report, error) {
	if s.Engine == nil {
		return nil, ErrNoEngine
	}
	rep := &Report{Engine: s.Engine.Name(), Nodes: s.Engine.Live().N(), Rounds: 1}
	var dirty []int
	for _, e := range events {
		if cerr := s.cancelled(); cerr != nil {
			return rep, cerr
		}
		if d, applied := notify(e); applied {
			rep.Events++
			dirty = append(dirty, d...)
		}
	}
	return rep, s.heal(rep, dirty)
}

// heal is the detect → repair → escalate cycle every batch entry point
// shares: local detection over the dirtied nodes, then resolve. Violations
// left standing land in rep.Standing.
func (s *Supervisor) heal(rep *Report, dirty []int) error {
	viols := s.Engine.CheckLocal(dirty)
	if len(viols) == 0 {
		return nil
	}
	rep.Detections = append(rep.Detections, Detection{
		Round: 1, FaultRound: 1, Violations: len(viols), First: viols[0].String(),
	})
	left, touched, err := s.resolve(rep, viols, dirty)
	rep.Touched = append(rep.Touched, touched...)
	if err != nil {
		return err
	}
	rep.Standing = left
	return nil
}

// resolve runs the repair → verify → escalate arm of the state machine for
// one detection batch, returning the violations still standing afterwards
// and the Touched of the repair it attempted (nil if it went straight to a
// recompute). A non-nil error means the supervisor's context fired
// mid-resolution: the engine's labels are wherever the repair stopped, and
// no escalation has happened.
func (s *Supervisor) resolve(rep *Report, viols []sim.Violation, dirty []int) ([]sim.Violation, []int, error) {
	eng := s.Engine
	var touched []int
	if !s.ForceRecompute {
		b := s.Budget
		if b.Ctx == nil {
			b.Ctx = s.Ctx
		}
		out := eng.Repair(viols, b)
		rep.Repairs++
		rep.RepairRounds += out.Rounds
		touched = out.Touched
		// A cancelled repair aborts the whole resolution: escalating would
		// start a full recompute the caller is about to abandon anyway.
		if cerr := s.cancelled(); cerr != nil {
			return viols, touched, cerr
		}
		// A repair must verify before it counts: the engine's detector is
		// re-run over the nodes whose verdict the repair may have changed.
		// Anything left standing escalates.
		if out.OK {
			recheck := out.Recheck
			if recheck == nil {
				recheck = append(append([]int(nil), out.Touched...), dirty...)
			}
			if left := eng.CheckLocal(recheck); len(left) == 0 {
				rep.RepairTouched += len(out.Touched)
				if n := eng.Live().N(); n > 0 {
					if frac := float64(len(out.Touched)) / float64(n); frac > rep.MaxTouchedFrac {
						rep.MaxTouchedFrac = frac
					}
				}
				return nil, touched, nil
			}
		}
	}
	if cerr := s.cancelled(); cerr != nil {
		return viols, touched, cerr
	}
	rep.Escalations++
	if rounds, err := eng.Recompute(); err == nil {
		rep.RecomputeRounds += rounds
		return nil, touched, nil
	}
	// A failed recompute (partitioned support): the incident stays open.
	return viols, touched, nil
}

// Sweep checks every registered invariant against the engine's current
// snapshot — the audit a caller runs after rebuilding an engine from
// durable state, where the labels were constructed rather than healed.
func (s *Supervisor) Sweep() []sim.Violation { return s.sweep() }

// sweep checks every registered invariant against the engine's snapshot.
func (s *Supervisor) sweep() []sim.Violation {
	w := s.Engine.Snapshot()
	var out []sim.Violation
	for _, inv := range sim.Invariants() {
		out = append(out, inv.Check(w)...)
	}
	return out
}

// appendClosedNeighborhoods appends every valid node of nodes and all its
// neighbors to dst, repeats kept (the detectors skip them): the recheck set
// of a node whose label moved, for an engine whose rule reads its
// neighbors' labels.
func appendClosedNeighborhoods(g *graph.Graph, dst []int, nodes ...int) []int {
	for _, v := range nodes {
		if v < 0 || v >= g.N() {
			continue
		}
		dst = append(dst, v)
		g.EachNeighbor(v, func(w int, _ float64) { dst = append(dst, w) })
	}
	return dst
}

// edgeEndpoints is the notification half of an edge event for engines
// whose labels need no per-event update: the endpoints are dirtied.
func edgeEndpoints(e sim.Event) ([]int, bool) {
	if e.Op != sim.OpAddEdge && e.Op != sim.OpRemoveEdge {
		return nil, false
	}
	return []int{e.U, e.V}, true
}

// violationNodes extracts the distinct node seeds of a violation batch
// (edge violations contribute both endpoints), sorted — the seed set
// engine repairs cascade from.
func violationNodes(viols []sim.Violation) []int {
	set := map[int]bool{}
	for _, v := range viols {
		if v.Node >= 0 {
			set[v.Node] = true
			continue
		}
		for _, e := range v.Edge {
			if e >= 0 {
				set[e] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
