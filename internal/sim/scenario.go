package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"structura/internal/graph"
	"structura/internal/hypercube"
	"structura/internal/labeling"
	"structura/internal/reversal"
	"structura/internal/runtime"
)

// Scenario couples a seeded topology with one labeling algorithm run under a
// fault schedule. Run must be a pure function of (seed, sch, workers): the
// same triple replays the same World byte-for-byte regardless of worker
// count, which is what makes seeds shareable bug reports.
type Scenario struct {
	Name string
	Desc string
	Run  func(seed uint64, sch Schedule, workers int) (*World, error)
}

var scenarios = map[string]Scenario{}

func registerScenario(s Scenario) { scenarios[s.Name] = s }

// ScenarioByName finds a builtin scenario.
func ScenarioByName(name string) (Scenario, error) {
	s, ok := scenarios[name]
	if !ok {
		return Scenario{}, fmt.Errorf("sim: unknown scenario %q", name)
	}
	return s, nil
}

// BuiltinScenarios lists the builtin scenarios sorted by name.
func BuiltinScenarios() []Scenario {
	out := make([]Scenario, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func init() {
	registerScenario(Scenario{
		Name: "mis",
		Desc: "three-color MIS election on a sparse random graph under kernel faults",
		Run:  runMISScenario,
	})
	registerScenario(Scenario{
		Name: "cds",
		Desc: "static Wu-Dai CDS labels on a grid, support graph churned underneath",
		Run:  runCDSScenario,
	})
	registerScenario(Scenario{
		Name: "reversal-full",
		Desc: "full link reversal on a chordal ring under link failures",
		Run: func(seed uint64, sch Schedule, workers int) (*World, error) {
			return runReversalScenario("reversal-full", reversal.Full, seed, sch)
		},
	})
	registerScenario(Scenario{
		Name: "reversal-partial",
		Desc: "partial (Gafni-Bertsekas) link reversal on a chordal ring under link failures",
		Run: func(seed uint64, sch Schedule, workers int) (*World, error) {
			return runReversalScenario("reversal-partial", reversal.Partial, seed, sch)
		},
	})
	registerScenario(Scenario{
		Name: "reversal-binary",
		Desc: "binary-link-label reversal (Charron-Bost Rule 1/2) under link failures",
		Run:  runBinaryScenario,
	})
	registerScenario(Scenario{
		Name: "distvec",
		Desc: "hop-count distance-vector labels toward node 0 on a chordal ring",
		Run:  runDistVecScenario,
	})
	registerScenario(Scenario{
		Name: "hypercube",
		Desc: "hypercube safety levels with seed-drawn faulty nodes under kernel faults",
		Run:  runCubeScenario,
	})
}

// statsFrom assembles runtime.Stats from an observed per-round history, for
// scenarios that cannot get the kernel's own Stats back (or that run outside
// the kernel entirely).
func statsFrom(hist []runtime.RoundStats, stable bool) runtime.Stats {
	st := runtime.Stats{Rounds: len(hist), Stable: stable, History: hist}
	for _, rs := range hist {
		st.Messages += rs.Messages
	}
	return st
}

func runMISScenario(seed uint64, sch Schedule, workers int) (*World, error) {
	g := MISGraph(seed)
	per := NewPerturber(g, seed, sch)
	per.EnableTrace()
	var hist []runtime.RoundStats
	res, err := labeling.DistributedMIS(g, labeling.PriorityByID(g.N()),
		runtime.WithPerturber(per),
		runtime.WithMaxRounds(sch.budget(g.N())),
		runtime.WithParallelism(workers),
		runtime.WithObserver(func(rs runtime.RoundStats) { hist = append(hist, rs) }),
	)
	stable := err == nil
	if err != nil && !errors.Is(err, labeling.ErrUnstable) {
		return nil, err
	}
	return &World{
		Scenario:  "mis",
		Graph:     per.FinalGraph(),
		Stats:     statsFrom(hist, stable),
		Trace:     per.Trace(),
		LastFault: per.LastFaultRound(),
		MIS:       &MISWorld{Colors: res.Colors, Stable: stable},
	}, nil
}

func runCDSScenario(seed uint64, sch Schedule, workers int) (*World, error) {
	// Labels are computed once on the pristine grid; the schedule then churns
	// the support underneath them. The invariants measure how long a static
	// labeling survives a dynamic environment — the paper's core contrast.
	g := CDSGrid()
	cds, mis, err := labeling.CDSFromMIS(g, labeling.PriorityByID(g.N()))
	if err != nil {
		return nil, err
	}
	live := g.Clone()
	fs := NewFaultStream(seed, sch)
	var hist []runtime.RoundStats
	lastFault := 0
	for round := 1; round <= fs.MaxRound(); round++ {
		applied := 0
		for _, e := range fs.RoundEvents(round, live) {
			if e.ApplyEdge(live) {
				applied++
			}
		}
		if applied > 0 {
			lastFault = round
		}
		hist = append(hist, runtime.RoundStats{Round: round, Changed: applied})
	}
	colors := make([]labeling.Color, g.N())
	for _, v := range mis {
		colors[v] = labeling.Black
	}
	return &World{
		Scenario:  "cds",
		Graph:     live,
		Stats:     statsFrom(hist, true),
		Trace:     fs.Trace(),
		LastFault: lastFault,
		CDS:       &CDSWorld{Members: cds},
	}, nil
}

// ReversalAlphas derives valid initial heights (destination strictly
// minimal) from BFS distances on the support; the async reversal scenario
// starts from the same heights.
func ReversalAlphas(g *graph.Graph, dest int) ([]int, error) {
	dist, _, err := g.BFS(dest)
	if err != nil {
		return nil, err
	}
	alphas := make([]int, g.N())
	for v, d := range dist {
		if d < 0 {
			return nil, fmt.Errorf("sim: support disconnected at node %d", v)
		}
		alphas[v] = d
	}
	return alphas, nil
}

// reversalEngine abstracts the three link-reversal variants behind the small
// surface the fault loop needs.
type reversalEngine interface {
	RemoveLink(u, v int) bool
	Step() []int
	Sinks() []int
	PointsTo(u, v int) bool
}

func runReversalLoop(name string, eng reversalEngine, live *graph.Graph, seed uint64, sch Schedule) (*World, error) {
	n := live.N()
	fs := NewFaultStream(seed, sch)
	perNode := make(map[int]int)
	total, fails, lastFault := 0, 0, 0
	var hist []runtime.RoundStats
	for round := 1; round <= fs.MaxRound(); round++ {
		for _, e := range fs.RoundEvents(round, live) {
			// Reversal repairs after failures only; the variants have no
			// link-addition rule, so add events are recorded but not applied.
			if e.Op == OpRemoveEdge && eng.RemoveLink(e.U, e.V) {
				live.RemoveEdge(e.U, e.V)
				fails++
				lastFault = round
			}
		}
		acted := eng.Step()
		total += len(acted)
		for _, v := range acted {
			perNode[v]++
		}
		hist = append(hist, runtime.RoundStats{Round: round, Changed: len(acted)})
	}
	budget := sch.Budget
	if budget <= 0 {
		budget = 4 * n * n // comfortably above the O(n^2) reversal bound
	}
	round := fs.MaxRound()
	for extra := 0; extra < budget; extra++ {
		acted := eng.Step()
		if len(acted) == 0 {
			break
		}
		round++
		total += len(acted)
		for _, v := range acted {
			perNode[v]++
		}
		hist = append(hist, runtime.RoundStats{Round: round, Changed: len(acted)})
	}
	stable := len(eng.Sinks()) == 0
	return &World{
		Scenario:  name,
		Graph:     live,
		Stats:     statsFrom(hist, stable),
		Trace:     fs.Trace(),
		LastFault: lastFault,
		Rev: &RevWorld{
			N:        n,
			Dest:     0,
			Mode:     name,
			Support:  live,
			PointsTo: eng.PointsTo,
			Sinks:    eng.Sinks(),
			Fails:    fails,
			Total:    total,
			PerNode:  perNode,
			Stable:   stable,
		},
	}, nil
}

func runReversalScenario(name string, mode reversal.Mode, seed uint64, sch Schedule) (*World, error) {
	g := ReversalRing(seed)
	alphas, err := ReversalAlphas(g, 0)
	if err != nil {
		return nil, err
	}
	net, err := reversal.NewNetwork(g, alphas, 0, mode)
	if err != nil {
		return nil, err
	}
	return runReversalLoop(name, net, g.Clone(), seed, sch)
}

func runBinaryScenario(seed uint64, sch Schedule, workers int) (*World, error) {
	g := ReversalRing(seed)
	alphas, err := ReversalAlphas(g, 0)
	if err != nil {
		return nil, err
	}
	// Uniform label 1 makes Rule 2 fire first: the full-reversal face of the
	// unified algorithm.
	b, err := reversal.NewBinaryLR(g, alphas, 0, 1)
	if err != nil {
		return nil, err
	}
	return runReversalLoop("reversal-binary", b, g.Clone(), seed, sch)
}

// HopCountRule returns the hop-count distance-vector rule the distvec
// scenarios run, on the round kernel and on the async executor alike: dest
// holds 0, every other node starts at +Inf and takes one more than its best
// neighbor view. The step reads the neighbor views alone (no captured CSR),
// so it stays well-defined when a perturber swaps the topology mid-run —
// unlike distvec.Compute, whose weighted step reads the frozen snapshot it
// was built on.
func HopCountRule(dest int) (init func(v int) float64, step func(v int, self float64, nbrs []float64) (float64, bool)) {
	init = func(v int) float64 {
		if v == dest {
			return 0
		}
		return math.Inf(1)
	}
	step = func(v int, self float64, nbrs []float64) (float64, bool) {
		if v == dest {
			return 0, false
		}
		best := math.Inf(1)
		for _, d := range nbrs {
			if d+1 < best {
				best = d + 1
			}
		}
		return best, best != self
	}
	return init, step
}

func runDistVecScenario(seed uint64, sch Schedule, workers int) (*World, error) {
	g := DistVecRing(seed)
	const dest = 0
	per := NewPerturber(g, seed, sch)
	per.EnableTrace()
	init, step := HopCountRule(dest)
	dist, stats, err := runtime.RunCSR(g.Freeze(), init, step,
		runtime.WithPerturber(per),
		runtime.WithMaxRounds(sch.budget(g.N())),
		runtime.WithParallelism(workers),
	)
	if err != nil {
		return nil, err
	}
	return &World{
		Scenario:  "distvec",
		Graph:     per.FinalGraph(),
		Stats:     stats,
		Trace:     per.Trace(),
		LastFault: per.LastFaultRound(),
		Dist:      &DistWorld{Dest: dest, Dist: dist, Stable: stats.Stable},
	}, nil
}

// CubeState is the per-node state of the monotonicity-instrumented safety
// level process: the current level, the minimum ever announced, and the peak
// reached after that minimum (zero while levels behave monotonically).
type CubeState struct {
	Level, Min, Peak int
}

// SafetyLevelRule returns the instrumented safety-level rule the hypercube
// scenarios run on cube: faulty nodes hold level 0, healthy ones start at
// the cube's dimension and recompute their level from the neighbor levels
// each round, tracking Min and Peak.
func SafetyLevelRule(cube *hypercube.Cube) (init func(v int) CubeState, step func(v int, self CubeState, nbrs []CubeState) (CubeState, bool)) {
	dim := cube.Dim()
	init = func(v int) CubeState {
		if cube.Faulty(v) {
			return CubeState{Level: 0, Min: 0}
		}
		return CubeState{Level: dim, Min: dim}
	}
	step = func(v int, self CubeState, nbrs []CubeState) (CubeState, bool) {
		if cube.Faulty(v) {
			return CubeState{Level: 0, Min: 0}, self.Level != 0
		}
		nl := make([]int, len(nbrs))
		for i, s := range nbrs {
			nl[i] = s.Level
		}
		l := hypercube.LevelFromNeighborLevels(nl, dim)
		out := self
		out.Level = l
		if l > out.Min && l > out.Peak {
			out.Peak = l
		}
		if l < out.Min {
			out.Min = l
		}
		return out, out != self
	}
	return init, step
}

func runCubeScenario(seed uint64, sch Schedule, workers int) (*World, error) {
	cube := FaultyCube(seed)
	g := cube.Graph()
	per := NewPerturber(g, seed, sch)
	per.EnableTrace()
	init, step := SafetyLevelRule(cube)
	states, stats, err := runtime.RunCSR(g.Freeze(), init, step,
		runtime.WithPerturber(per),
		runtime.WithMaxRounds(sch.budget(g.N())),
		runtime.WithParallelism(workers),
	)
	if err != nil {
		return nil, err
	}
	n := g.N()
	cw := &CubeWorld{
		Dim:       cubeDim,
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
	return &World{
		Scenario:  "hypercube",
		Graph:     per.FinalGraph(),
		Stats:     stats,
		Trace:     per.Trace(),
		LastFault: per.LastFaultRound(),
		Cube:      cw,
	}, nil
}
