package async

import (
	"fmt"
	"sort"

	"structura/internal/labeling"
	"structura/internal/reversal"
	"structura/internal/sim"
)

// Result is one asynchronous fault-injected run, judged by the sim
// invariant registry. It mirrors sim.Result and adds the transport-level
// statistics the synchronous path has no analogue for.
type Result struct {
	Scenario string
	Seed     uint64
	Schedule sim.Schedule
	World    *sim.World

	// Quiesced reports a detector-confirmed termination within budget.
	Quiesced bool

	// LastFault is the last round window in which a fault applied (0 if none).
	LastFault int

	// RecoveryRounds counts round windows between the last fault and the
	// last state change, the async reading of sim.Result.RecoveryRounds.
	// -1 when the run never quiesced.
	RecoveryRounds int

	Violations []sim.Violation

	// Async carries the executor's transport and virtual-time accounting.
	Async Stats
}

func (r *Result) String() string {
	verdict := "OK"
	if len(r.Violations) > 0 {
		verdict = fmt.Sprintf("%d violation(s)", len(r.Violations))
	}
	return fmt.Sprintf("%s seed=%d vrounds=%d ticks=%d quiesced=%v recovery=%d retry=%.3f: %s",
		r.Scenario, r.Seed, r.Async.VRounds, r.Async.LastActivity, r.Quiesced,
		r.RecoveryRounds, r.Async.RetryOverhead(), verdict)
}

// Scenario couples a seeded topology with one labeling rule run on the
// asynchronous executor. The four entries mirror their synchronous
// counterparts in internal/sim rule-for-rule: same topology builders, same
// step functions, same World sections — only the execution model differs.
type Scenario struct {
	Name string
	Desc string
	Run  func(seed uint64, sch sim.Schedule, cfg Config) (*sim.World, Stats, error)
}

var scenarios = map[string]Scenario{}

func register(s Scenario) { scenarios[s.Name] = s }

// ScenarioByName finds a builtin async scenario.
func ScenarioByName(name string) (Scenario, error) {
	s, ok := scenarios[name]
	if !ok {
		return Scenario{}, fmt.Errorf("async: unknown scenario %q (no async counterpart registered)", name)
	}
	return s, nil
}

// Scenarios lists the builtin async scenarios sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func init() {
	register(Scenario{
		Name: "mis",
		Desc: "three-color MIS election on a sparse random graph, message-driven",
		Run:  runMIS,
	})
	register(Scenario{
		Name: "distvec",
		Desc: "hop-count distance vectors toward node 0 on a chordal ring, message-driven",
		Run:  runDistVec,
	})
	register(Scenario{
		Name: "hypercube",
		Desc: "hypercube safety levels with seed-drawn faulty nodes, message-driven",
		Run:  runCube,
	})
	register(Scenario{
		Name: "reversal-full",
		Desc: "full link reversal on a chordal ring under link failures, message-driven",
		Run:  runReversalFull,
	})
}

// Explore runs a named async scenario under (seed, sch, cfg) and judges the
// final World with the sim invariant registry (all registered invariants
// when none are passed) — the asynchronous twin of sim.Explore, with the
// same replay guarantee: the (scenario, seed, sch, cfg) tuple reproduces
// the Result bit-for-bit at any GOMAXPROCS setting.
func Explore(scenario string, seed uint64, sch sim.Schedule, cfg Config, invs ...sim.Invariant) (*Result, error) {
	sc, err := ScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	w, st, err := sc.Run(seed, sch, cfg)
	if err != nil {
		return nil, err
	}
	if len(invs) == 0 {
		invs = sim.Invariants()
	}
	var violations []sim.Violation
	for _, inv := range invs {
		violations = append(violations, inv.Check(w)...)
	}
	return &Result{
		Scenario:       scenario,
		Seed:           seed,
		Schedule:       sch,
		World:          w,
		Quiesced:       st.Quiesced,
		LastFault:      w.LastFault,
		RecoveryRounds: sim.RecoveryRounds(w),
		Violations:     violations,
		Async:          st,
	}, nil
}

// ---- scenarios ---------------------------------------------------------

func runMIS(seed uint64, sch sim.Schedule, cfg Config) (*sim.World, Stats, error) {
	g := sim.MISGraph(seed)
	init, step := labeling.MISRule(labeling.PriorityByID(g.N()))
	x, err := NewExecutor(g, init, step, sch, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	states, st, err := x.Run()
	if err != nil {
		return nil, st, err
	}
	colors := make([]labeling.Color, len(states))
	for v, s := range states {
		colors[v] = s.Color
	}
	return &sim.World{
		Scenario:  "mis",
		Graph:     x.Live(),
		Stats:     x.syncStats(),
		Trace:     x.Trace(),
		LastFault: x.LastFaultRound(),
		MIS:       &sim.MISWorld{Colors: colors, Stable: st.Quiesced},
	}, st, nil
}

func runDistVec(seed uint64, sch sim.Schedule, cfg Config) (*sim.World, Stats, error) {
	g := sim.DistVecRing(seed)
	const dest = 0
	init, step := sim.HopCountRule(dest)
	x, err := NewExecutor(g, init, step, sch, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	dist, st, err := x.Run()
	if err != nil {
		return nil, st, err
	}
	return &sim.World{
		Scenario:  "distvec",
		Graph:     x.Live(),
		Stats:     x.syncStats(),
		Trace:     x.Trace(),
		LastFault: x.LastFaultRound(),
		Dist:      &sim.DistWorld{Dest: dest, Dist: dist, Stable: st.Quiesced},
	}, st, nil
}

func runCube(seed uint64, sch sim.Schedule, cfg Config) (*sim.World, Stats, error) {
	cube := sim.FaultyCube(seed)
	g := cube.Graph()
	dim := cube.Dim()
	init, step := sim.SafetyLevelRule(cube)
	x, err := NewExecutor(g, init, step, sch, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	states, st, err := x.Run()
	if err != nil {
		return nil, st, err
	}
	n := g.N()
	cw := &sim.CubeWorld{
		Dim:       dim,
		Faulty:    make([]bool, n),
		Levels:    make([]int, n),
		MinLevels: make([]int, n),
		Peaks:     make([]int, n),
	}
	for v, s := range states {
		cw.Faulty[v] = cube.Faulty(v)
		cw.Levels[v] = s.Level
		cw.MinLevels[v] = s.Min
		cw.Peaks[v] = s.Peak
	}
	return &sim.World{
		Scenario:  "hypercube",
		Graph:     x.Live(),
		Stats:     x.syncStats(),
		Trace:     x.Trace(),
		LastFault: x.LastFaultRound(),
		Cube:      cw,
	}, st, nil
}

func runReversalFull(seed uint64, sch sim.Schedule, cfg Config) (*sim.World, Stats, error) {
	g := sim.ReversalRing(seed)
	const dest = 0
	alphas, err := sim.ReversalAlphas(g, dest)
	if err != nil {
		return nil, Stats{}, err
	}
	n := g.N()
	// Full reversal as a message-driven rule: a node whose every known
	// neighbor height is above its own (a sink under its local view) raises
	// itself just above the highest of them — reversal.Network's Full rule
	// evaluated against views instead of global heights. The activation
	// counters feed the O(n^2) work-bound invariant; the single-loop
	// executor makes closure-side counting deterministic.
	perNode := map[int]int{}
	total := 0
	if cfg.MaxRounds <= 0 && sch.Budget <= 0 {
		// Mirror the synchronous reversal budget: comfortably above the
		// O(n^2) reversal work bound, not the generic 4n+8 labeling budget.
		cfg.MaxRounds = sch.Horizon + 4*n*n
	}
	x, err := NewExecutor(g,
		func(v int) reversal.Height { return reversal.Height{Alpha: alphas[v], ID: v} },
		func(v int, self reversal.Height, nbrs []reversal.Height) (reversal.Height, bool) {
			if v == dest || len(nbrs) == 0 {
				return self, false
			}
			maxA := self.Alpha
			for _, h := range nbrs {
				if h.Less(self) {
					return self, false // an outgoing link exists: not a sink
				}
				if h.Alpha > maxA {
					maxA = h.Alpha
				}
			}
			perNode[v]++
			total++
			return reversal.Height{Alpha: maxA + 1, Beta: self.Beta, ID: v}, true
		}, sch, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	// Reversal repairs after failures only; the variants have no
	// link-addition rule, so add events are recorded but not applied —
	// matching sim.runReversalLoop.
	x.skipAdds = true
	heights, st, err := x.Run()
	if err != nil {
		return nil, st, err
	}
	live := x.Live()
	fails := 0
	lastFail := 0
	for _, e := range x.Trace() {
		if e.Op == sim.OpRemoveEdge {
			fails++
			if e.Round > lastFail {
				lastFail = e.Round
			}
		}
	}
	pointsTo := func(u, v int) bool {
		return live.HasEdge(u, v) && heights[v].Less(heights[u])
	}
	var sinks []int
	for v := 0; v < n; v++ {
		if v == dest || live.Degree(v) == 0 {
			continue
		}
		sink := true
		live.EachNeighbor(v, func(w int, _ float64) {
			if heights[w].Less(heights[v]) {
				sink = false
			}
		})
		if sink {
			sinks = append(sinks, v)
		}
	}
	stable := st.Quiesced && len(sinks) == 0
	return &sim.World{
		Scenario:  "reversal-full",
		Graph:     live,
		Stats:     x.syncStats(),
		Trace:     x.Trace(),
		LastFault: x.LastFaultRound(),
		Rev: &sim.RevWorld{
			N:        n,
			Dest:     dest,
			Mode:     "reversal-full",
			Support:  live,
			PointsTo: pointsTo,
			Sinks:    sinks,
			Fails:    fails,
			Total:    total,
			PerNode:  perNode,
			Stable:   stable,
		},
	}, st, nil
}
