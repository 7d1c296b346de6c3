package heal

import (
	"structura/internal/distvec"
	"structura/internal/graph"
	"structura/internal/labeling"
)

// Warm-start constructors: build supervised engines from recovered label
// epochs instead of recomputing from the topology. The labels are trusted
// only up to the dirty set recovery reports — the owner must run HealDirty
// over it (and ideally a Sweep audit) before publishing. This is what makes
// recovery-to-ready O(changes since last epoch) instead of O(graph).

// NewDistVecEngineFromLabels is NewDistVecEngineOver seeded with recovered
// route labels: hop distances and next hops toward dest, as persisted by
// the WAL's label epochs. g is retained and only read.
func NewDistVecEngineFromLabels(g *graph.Graph, dest int, dist []float64, next []int) (Engine, error) {
	m, err := distvec.NewMaintainerFromLabels(g, dest, dist, next)
	if err != nil {
		return nil, err
	}
	return &distvecEngine{g: g, m: m}, nil
}

// NewMISEngineFromLabels is NewMISEngineOver seeded with a recovered
// membership array under ID priorities. g is retained and only read.
func NewMISEngineFromLabels(g *graph.Graph, in []bool) (Engine, error) {
	if len(in) != g.N() {
		return nil, errLabelMismatch("mis", g.N(), len(in))
	}
	return &misEngine{
		g:    g,
		prio: labeling.PriorityByID(g.N()),
		in:   append([]bool(nil), in...),
	}, nil
}

// NewCDSEngineFromLabels is NewCDSEngineOver seeded with a recovered
// backbone membership array. g is retained and only read.
// Unlike NewCDSEngineOver this cannot fail on a disconnected support — the
// recovered membership simply stands until a heal pass rules on it.
func NewCDSEngineFromLabels(g *graph.Graph, members []bool) (Engine, error) {
	if len(members) != g.N() {
		return nil, errLabelMismatch("cds", g.N(), len(members))
	}
	set := make(map[int]bool)
	for v, in := range members {
		if in {
			set[v] = true
		}
	}
	return &cdsEngine{g: g, prio: labeling.PriorityByID(g.N()), members: set}, nil
}

type labelMismatchError struct {
	engine string
	n, got int
}

func errLabelMismatch(engine string, n, got int) error {
	return &labelMismatchError{engine: engine, n: n, got: got}
}

func (e *labelMismatchError) Error() string {
	return "heal: " + e.engine + " label array does not match the graph"
}

// HealDirty runs one detect → repair → escalate cycle over an
// externally-derived dirty set without notifying any events — the
// warm-start path, where recovery already replayed the topology and
// reports exactly which nodes the durable label epoch may not cover. The
// returned report covers just this pass; Standing lists violations that
// survived both repair and recompute.
func (s *Supervisor) HealDirty(dirty []int) (*Report, error) {
	if s.Engine == nil {
		return nil, ErrNoEngine
	}
	rep := &Report{Engine: s.Engine.Name(), Nodes: s.Engine.Live().N(), Rounds: 1}
	if cerr := s.cancelled(); cerr != nil {
		return rep, cerr
	}
	return rep, s.heal(rep, dirty)
}
