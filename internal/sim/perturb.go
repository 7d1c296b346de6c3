package sim

import (
	"math/rand/v2"

	"structura/internal/graph"
	"structura/internal/runtime"
)

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix used to
// derive pure per-round, per-edge drop decisions. Decisions made this way
// are independent of evaluation order, which is what keeps perturbed runs
// bit-identical across worker counts.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// dropChance converts a hash to a uniform float in [0,1).
func dropChance(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Perturber materializes a Schedule against a live support graph and feeds
// it to the runtime kernel through the WithPerturber hook. All randomness
// comes from one PCG stream drawn in a fixed order by the coordinating
// goroutine, plus pure per-edge hashes for message loss, so a (seed,
// schedule) pair replays byte-for-byte — including across different worker
// counts. A Perturber is single-run: build a fresh one per Explore.
type Perturber struct {
	sch  Schedule
	seed uint64
	rng  *rand.Rand
	live *graph.Graph
	n    int

	downUntil []int // v is down through round downUntil[v]; -1 = up
	skipUntil []int // v skips its step through round skipUntil[v]; -1 = none
	byRound   map[int][]Event
	maxEvent  int

	record    bool
	trace     []Event
	lastFault int
}

// NewPerturber builds the fault injector for one run over g (cloned; the
// caller's graph is never mutated).
func NewPerturber(g *graph.Graph, seed uint64, sch Schedule) *Perturber {
	n := g.N()
	p := &Perturber{
		sch:       sch,
		seed:      seed,
		rng:       rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15)),
		live:      g.Clone(),
		n:         n,
		downUntil: make([]int, n),
		skipUntil: make([]int, n),
		byRound:   make(map[int][]Event),
		maxEvent:  sch.maxEventRound(),
	}
	for v := 0; v < n; v++ {
		p.downUntil[v] = -1
		p.skipUntil[v] = -1
	}
	for _, e := range sch.Events {
		p.byRound[e.Round] = append(p.byRound[e.Round], e)
	}
	return p
}

// EnableTrace makes the perturber record every concrete fault it applies
// (scripted and drawn, including enumerated message drops), so the run can
// be replayed — and minimized — from Trace() alone.
func (p *Perturber) EnableTrace() { p.record = true }

// Trace returns the concrete events applied so far.
func (p *Perturber) Trace() []Event { return append([]Event(nil), p.trace...) }

// FinalGraph returns a copy of the live (churned) support graph — the
// topology invariants must be checked against.
func (p *Perturber) FinalGraph() *graph.Graph { return p.live.Clone() }

// LastFaultRound returns the last round at which any fault applied (0 if
// none did), the anchor for rounds-to-restabilize measurements.
func (p *Perturber) LastFaultRound() int { return p.lastFault }

// BeforeRound implements runtime.Perturber: scripted events first, then the
// round's probabilistic draws (churn, crashes, skew) in fixed node order.
func (p *Perturber) BeforeRound(round int, g *graph.CSR) runtime.Perturbation {
	topoChanged := false
	var drops map[[2]int]bool
	faulted := false

	apply := func(e Event) {
		switch e.Op {
		case OpAddEdge, OpRemoveEdge:
			if !e.ApplyEdge(p.live) {
				return
			}
			topoChanged = true
		case OpCrash:
			if e.U < 0 || e.U >= p.n {
				return
			}
			d := e.For
			if d <= 0 {
				d = 1
			}
			p.downUntil[e.U] = round + d - 1
		case OpSkip:
			if e.U < 0 || e.U >= p.n {
				return
			}
			d := e.For
			if d <= 0 {
				d = 1
			}
			p.skipUntil[e.U] = round + d - 1
		case OpDrop:
			if drops == nil {
				drops = make(map[[2]int]bool)
			}
			drops[[2]int{e.U, e.V}] = true
		default:
			return
		}
		faulted = true
		if p.record {
			p.trace = append(p.trace, Event{Round: round, Op: e.Op, U: e.U, V: e.V, For: e.For})
		}
	}

	for _, e := range p.byRound[round] {
		apply(e)
	}
	if round <= p.sch.Horizon {
		every := p.sch.ChurnEvery
		if every <= 0 {
			every = 1
		}
		if (p.sch.ChurnRemove > 0 || p.sch.ChurnAdd > 0) && round%every == 0 {
			for i := 0; i < p.sch.ChurnRemove; i++ {
				edges := p.live.Edges()
				if len(edges) == 0 {
					break
				}
				e := edges[p.rng.IntN(len(edges))]
				apply(Event{Op: OpRemoveEdge, U: e.From, V: e.To})
			}
			for i := 0; i < p.sch.ChurnAdd; i++ {
				for try := 0; try < 16; try++ {
					u, v := p.rng.IntN(p.n), p.rng.IntN(p.n)
					if !p.live.CanAddEdge(u, v) {
						continue
					}
					apply(Event{Op: OpAddEdge, U: u, V: v})
					break
				}
			}
		}
		if p.sch.CrashProb > 0 {
			down := p.sch.Downtime
			if down <= 0 {
				down = 1
			}
			for v := 0; v < p.n; v++ {
				if p.downUntil[v] >= round {
					continue
				}
				if p.rng.Float64() < p.sch.CrashProb {
					apply(Event{Op: OpCrash, U: v, For: down})
				}
			}
		}
		if p.sch.SkewProb > 0 {
			maxSkew := p.sch.MaxSkew
			if maxSkew <= 0 {
				maxSkew = 1
			}
			for v := 0; v < p.n; v++ {
				if p.downUntil[v] >= round || p.skipUntil[v] >= round {
					continue
				}
				if p.rng.Float64() < p.sch.SkewProb {
					apply(Event{Op: OpSkip, U: v, For: 1 + p.rng.IntN(maxSkew)})
				}
			}
		}
	}

	var per runtime.Perturbation
	if topoChanged {
		per.Topology = p.live.Freeze()
	}
	for v := 0; v < p.n; v++ {
		if p.downUntil[v] >= 0 && p.downUntil[v] == round-1 {
			// The node served its downtime: restart with amnesia.
			if per.Restart == nil {
				per.Restart = make([]bool, p.n)
			}
			per.Restart[v] = true
			p.downUntil[v] = -1
			faulted = true
		}
		if p.downUntil[v] >= round {
			if per.Inactive == nil {
				per.Inactive = make([]bool, p.n)
			}
			if per.Silence == nil {
				per.Silence = make([]bool, p.n)
			}
			per.Inactive[v] = true
			per.Silence[v] = true
			faulted = true
		} else if p.skipUntil[v] >= round {
			if per.Inactive == nil {
				per.Inactive = make([]bool, p.n)
			}
			per.Inactive[v] = true
			faulted = true
		}
	}

	loss := 0.0
	if round <= p.sch.Horizon {
		loss = p.sch.MsgLoss
	}
	if loss > 0 || len(drops) > 0 {
		roundKey := splitmix64(p.seed ^ uint64(round)*0x9E3779B97F4A7C15)
		scripted := drops
		per.Drop = func(from, to int) bool {
			if scripted != nil && scripted[[2]int{from, to}] {
				return true
			}
			if loss <= 0 {
				return false
			}
			h := splitmix64(roundKey ^ (uint64(uint32(from))<<32 | uint64(uint32(to))))
			return dropChance(h) < loss
		}
		if loss > 0 {
			faulted = true
			if p.record {
				// Enumerate the round's pure-hash drops so the trace alone
				// replays the run (scripted drops are already recorded).
				topo := g
				if per.Topology != nil {
					topo = per.Topology
				}
				for v := 0; v < topo.N(); v++ {
					for _, w := range topo.Neighbors(v) {
						if scripted != nil && scripted[[2]int{int(w), v}] {
							continue
						}
						if per.Drop(int(w), v) {
							p.trace = append(p.trace, Event{Round: round, Op: OpDrop, U: int(w), V: v})
						}
					}
				}
			}
		}
	}

	if faulted {
		p.lastFault = round
	}
	return per
}

// Active implements runtime.Perturber: the run stays open through the
// adversary window, the scripted-event tail, and any pending crash/skew
// recoveries.
func (p *Perturber) Active(round int) bool {
	if round <= p.sch.Horizon || round <= p.maxEvent {
		return true
	}
	for v := 0; v < p.n; v++ {
		if p.downUntil[v] >= 0 && p.downUntil[v]+1 >= round {
			return true
		}
		if p.skipUntil[v]+1 >= round {
			return true
		}
	}
	return false
}

// FaultStream materializes the schedule's scripted events and random edge
// churn for scenarios whose algorithms run outside the round kernel (link
// reversal, static CDS under churn). It uses a PCG stream independent of
// the kernel Perturber's and records every applied event for replay.
type FaultStream struct {
	sch   Schedule
	rng   *rand.Rand
	byRnd map[int][]Event
	trace []Event
}

// NewFaultStream builds the stream for one run.
func NewFaultStream(seed uint64, sch Schedule) *FaultStream {
	f := &FaultStream{
		sch:   sch,
		rng:   rand.New(rand.NewPCG(seed, 0xD1B54A32D192ED03)),
		byRnd: make(map[int][]Event),
	}
	for _, e := range sch.Events {
		f.byRnd[e.Round] = append(f.byRnd[e.Round], e)
	}
	return f
}

// RoundEvents returns the concrete churn events for the round: scripted
// edge events first, then the round's random draws against live (which is
// only read, never mutated — the caller applies the events).
func (f *FaultStream) RoundEvents(round int, live *graph.Graph) []Event {
	var out []Event
	emit := func(e Event) {
		e.Round = round
		out = append(out, e)
		f.trace = append(f.trace, e)
	}
	for _, e := range f.byRnd[round] {
		if e.Op == OpAddEdge || e.Op == OpRemoveEdge {
			emit(e)
		}
	}
	if round <= f.sch.Horizon {
		every := f.sch.ChurnEvery
		if every <= 0 {
			every = 1
		}
		if (f.sch.ChurnRemove > 0 || f.sch.ChurnAdd > 0) && round%every == 0 {
			removed := make(map[[2]int]bool)
			for i := 0; i < f.sch.ChurnRemove; i++ {
				edges := live.Edges()
				var candidates []graph.Edge
				for _, e := range edges {
					if !removed[[2]int{e.From, e.To}] {
						candidates = append(candidates, e)
					}
				}
				if len(candidates) == 0 {
					break
				}
				e := candidates[f.rng.IntN(len(candidates))]
				removed[[2]int{e.From, e.To}] = true
				emit(Event{Op: OpRemoveEdge, U: e.From, V: e.To})
			}
			n := live.N()
			for i := 0; i < f.sch.ChurnAdd; i++ {
				for try := 0; try < 16; try++ {
					u, v := f.rng.IntN(n), f.rng.IntN(n)
					if !live.CanAddEdge(u, v) {
						continue
					}
					emit(Event{Op: OpAddEdge, U: u, V: v})
					break
				}
			}
		}
	}
	return out
}

// Trace returns every event emitted so far.
func (f *FaultStream) Trace() []Event { return append([]Event(nil), f.trace...) }

// MaxRound returns the last round that can still emit events.
func (f *FaultStream) MaxRound() int {
	m := f.sch.Horizon
	if me := f.sch.maxEventRound(); me > m {
		m = me
	}
	return m
}
