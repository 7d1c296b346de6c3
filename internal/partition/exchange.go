package partition

import (
	"unsafe"

	"structura/internal/graph"
	"structura/internal/runtime"
)

// ExchangeStats is the boundary traffic of a run priced on a plan: how many
// values (and bytes) would cross shards, per round and in total.
type ExchangeStats struct {
	Rounds         int   // rounds priced (one per kernel round)
	Values         int64 // boundary values shipped, total
	Bytes          int64 // Values x state size
	MaxRoundValues int   // largest single-round exchange
}

// ValuesPerRound is the mean boundary values exchanged per round.
func (es *ExchangeStats) ValuesPerRound() float64 {
	if es.Rounds == 0 {
		return 0
	}
	return float64(es.Values) / float64(es.Rounds)
}

// BytesPerRound is the mean bytes exchanged per round.
func (es *ExchangeStats) BytesPerRound() float64 {
	if es.Rounds == 0 {
		return 0
	}
	return float64(es.Bytes) / float64(es.Rounds)
}

// Run executes a distributed algorithm on the unsharded kernel
// (runtime.RunCSR over the plan's graph) and prices its exchange on the
// plan. Each round costs, per node whose step reported ch == true and per
// node the perturber restarted, one value to every other shard holding a
// reader of that node in the round's topology. A value is priced at the
// in-memory size of S (referenced storage is shared, not shipped).
//
// The model relies on the step-honesty contract of runtime.WithDelta: step
// must report ch == true whenever the returned state differs from self.
//
// pert, when non-nil, is the run's fault injector; pass it here rather than
// through runtime.WithPerturber so the model sees its restarts and topology
// swaps (a swap recounts the readers before that round's restarts are
// priced). Run installs its own observer, so opts must not carry
// runtime.WithObserver or runtime.WithPerturber.
func Run[S any](
	p *Plan,
	init func(v int) S,
	step func(v int, self S, neighbors []S) (S, bool),
	pert runtime.Perturber,
	opts ...runtime.Option,
) ([]S, runtime.Stats, ExchangeStats, error) {
	var zero S
	m := &meter{
		inner:      pert,
		bounds:     p.bounds,
		readers:    p.readers,
		changed:    make([]bool, p.g.N()),
		valueBytes: int64(unsafe.Sizeof(zero)),
	}
	// Each node is stepped by one worker per round, so its slot has a single
	// writer; the round barrier orders those writes before observe reads them.
	metered := func(v int, self S, nbrs []S) (S, bool) {
		s, ch := step(v, self, nbrs)
		if ch {
			m.changed[v] = true
		}
		return s, ch
	}
	all := append(opts[:len(opts):len(opts)], runtime.WithObserver(m.observe))
	if pert != nil {
		all = append(all, runtime.WithPerturber(m))
	}
	states, st, err := runtime.RunCSR(p.g, init, metered, all...)
	return states, st, m.stats, err
}

// meter accumulates one run's exchange. As a runtime.Perturber it wraps the
// caller's, pricing restarts against the topology in force; its observe
// method prices the round's changed nodes and closes the round.
type meter struct {
	inner      runtime.Perturber
	bounds     []int32
	readers    []int32 // the plan's counts until a topology swap
	changed    []bool  // changed[v]: v's step reported a change this round
	restarted  int64   // values shipped by this round's restarts
	valueBytes int64
	stats      ExchangeStats
}

func (m *meter) BeforeRound(round int, g *graph.CSR) runtime.Perturbation {
	p := m.inner.BeforeRound(round, g)
	// A swap that changes the node count is rejected by the kernel.
	if t := p.Topology; t != nil && t.N() == len(m.changed) {
		m.readers = remoteReaders(t, m.bounds)
	}
	// Reset rather than add: on resume the kernel replays earlier rounds'
	// BeforeRound calls, and only the last one applies to a priced round.
	m.restarted = 0
	for v, rs := range p.Restart {
		if rs {
			m.restarted += int64(m.readers[v])
		}
	}
	return p
}

func (m *meter) Active(round int) bool { return m.inner.Active(round) }

func (m *meter) observe(runtime.RoundStats) {
	values := m.restarted
	m.restarted = 0
	for v, ch := range m.changed {
		if ch {
			values += int64(m.readers[v])
			m.changed[v] = false
		}
	}
	m.stats.Rounds++
	m.stats.Values += values
	m.stats.Bytes += values * m.valueBytes
	if int(values) > m.stats.MaxRoundValues {
		m.stats.MaxRoundValues = int(values)
	}
}
