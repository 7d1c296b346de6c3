package heal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/sim"
)

// recordingEngine records what the supervisor asks of an engine during one
// heal: every CheckLocal input (the first is detection's dirty set) and
// every repair outcome. It also runs the neighborhood oracle beside every
// CheckLocal and keeps the first disagreement.
type recordingEngine struct {
	Engine
	checks   [][]int
	outs     []RepairOutcome
	mismatch string
}

func (r *recordingEngine) CheckLocal(dirty []int) []sim.Violation {
	r.checks = append(r.checks, append([]int(nil), dirty...))
	got := r.Engine.CheckLocal(dirty)
	if want := nearDetect(r.Engine, dirty); r.mismatch == "" && !sameViolations(got, want) {
		r.mismatch = fmt.Sprintf("check %d over %d node(s): exact detector found %d violation(s), N[dirty] oracle %d",
			len(r.checks), len(dirty), len(got), len(want))
	}
	return got
}

func (r *recordingEngine) Repair(viols []sim.Violation, b Budget) RepairOutcome {
	out := r.Engine.Repair(viols, b)
	r.outs = append(r.outs, out)
	return out
}

func (r *recordingEngine) reset() { r.checks, r.outs, r.mismatch = nil, nil, "" }

// nearDetect is the detector judged over the closed neighborhoods of the
// given nodes, the blanket expansion detection used before Apply and Repair
// named exact sets. A node outside an exact set has the verdict it had
// before the batch, which was clean, so on a correct engine both find the
// same violations.
func nearDetect(eng Engine, nodes []int) []sim.Violation {
	return eng.CheckLocal(appendClosedNeighborhoods(eng.Live(), nil, nodes...))
}

// sameViolations compares two violation lists as sets.
func sameViolations(a, b []sim.Violation) bool {
	key := func(vs []sim.Violation) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.String()
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// fullVerify is the widest verify: the detector over the closed
// neighborhoods of everything the repair touched and the whole dirty set.
// It does its own expansion, because CheckLocal judges only what it is
// given. It is the oracle a narrowed recheck set must agree with.
func fullVerify(eng Engine, out RepairOutcome, dirty []int) []sim.Violation {
	return nearDetect(eng, append(append([]int(nil), out.Touched...), dirty...))
}

// verifyCase is one graph family under one churn shape.
type verifyCase struct {
	name   string
	graph  func(seed int64) *graph.Graph
	budget Budget
	readd  bool // each batch also removes and re-adds one edge
}

func erGraph(seed int64) *graph.Graph {
	const n = 300
	return gen.SparseErdosRenyi(rand.New(rand.NewSource(seed)), n, 5.0/float64(n-1))
}

func chordedRing(seed int64) *graph.Graph { return sim.ChordalRing(200, 20, uint64(seed)) }

// churnBatch draws one batch over g without applying it: removals of
// existing edges and adds of absent pairs, plus, when readd is set, one
// edge removed and re-added within the batch.
func churnBatch(r *rand.Rand, g *graph.Graph, removes, adds int, readd bool) []sim.Event {
	var out []sim.Event
	edges := g.Edges()
	for i := 0; i < removes && len(edges) > 0; i++ {
		e := edges[r.Intn(len(edges))]
		out = append(out, sim.Event{Op: sim.OpRemoveEdge, U: e.From, V: e.To})
	}
	for i := 0; i < adds; i++ {
		if u, v := r.Intn(g.N()), r.Intn(g.N()); u != v && !g.HasEdge(u, v) {
			out = append(out, sim.Event{Op: sim.OpAddEdge, U: u, V: v})
		}
	}
	if readd && len(edges) > 0 {
		e := edges[r.Intn(len(edges))]
		out = append(out,
			sim.Event{Op: sim.OpRemoveEdge, U: e.From, V: e.To},
			sim.Event{Op: sim.OpAddEdge, U: e.To, V: e.From})
	}
	return out
}

// checkHeal judges one finished heal: every CheckLocal agreed with the
// neighborhood oracle; after every OK repair that counted, the full-width
// verify and the invariant sweep both find nothing; the
// distance-vector labels equal a fresh rebuild's, next hops included,
// because the fixed point is a function of the edge set. It returns the
// heal's escalations.
func checkHeal(t *testing.T, sup *Supervisor, rec *recordingEngine, rep *Report) int {
	t.Helper()
	if rec.mismatch != "" {
		t.Fatal(rec.mismatch)
	}
	if len(rep.Standing) != 0 {
		t.Fatalf("%d standing violation(s), first %s", len(rep.Standing), rep.Standing[0])
	}
	if rep.Repairs == 1 && rep.Escalations == 0 {
		if left := fullVerify(rec.Engine, rec.outs[0], rec.checks[0]); len(left) != 0 {
			t.Fatalf("narrowed verify passed a repair the full verify rejects: %s", left[0])
		}
	}
	if left := sup.Sweep(); len(left) != 0 {
		t.Fatalf("sweep after heal: %d violation(s), first %s", len(left), left[0])
	}
	if dv, ok := rec.Engine.(*distvecEngine); ok {
		truth, err := newDistVecEngineOver(dv.g.Clone(), dv.m.Dest())
		if err != nil {
			t.Fatal(err)
		}
		td, tn := truth.RouteLabels()
		hd, hn := dv.RouteLabels()
		for v := range td {
			if td[v] != hd[v] || tn[v] != hn[v] {
				t.Fatalf("node %d healed to (%v, %d), a rebuild gives (%v, %d)", v, hd[v], hn[v], td[v], tn[v])
			}
		}
	}
	return rep.Escalations
}

// newVerifyEngine builds the named engine over g.
func newVerifyEngine(t *testing.T, name string, g *graph.Graph) Engine {
	t.Helper()
	var eng Engine
	var err error
	switch name {
	case "distvec":
		eng, err = newDistVecEngineOver(g, 0)
	case "mis":
		eng, err = newMISEngineOver(g)
	case "hypercube":
		eng = newCubeEngineOver(g, everyKth(g.N(), 9), 5)
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// everyKth marks every k-th of n nodes, starting at node k-1: the faulty
// nodes of a safety-level engine over a graph that is not a cube.
func everyKth(n, k int) []bool {
	out := make([]bool, n)
	for v := k - 1; v < n; v += k {
		out[v] = true
	}
	return out
}

// TestVerifyOnlyWhereRepairMoved drives the distance-vector, MIS and
// hypercube engines — the ones whose Apply or Repair names a set other than
// Touched plus the dirty set — through seeded churn on ER and chorded-ring
// graphs. Every detection and verify must find what the detector finds over
// the closed neighborhoods of its input, and every successful repair must
// pass the full-width verify and the invariant sweep. Unbounded budgets
// must never escalate: a correct repair that drains its frontier always
// verifies, so an escalation there means the verify caught a repair that
// left a violation behind.
func TestVerifyOnlyWhereRepairMoved(t *testing.T) {
	cases := []verifyCase{
		{name: "er", graph: erGraph},
		{name: "ring", graph: chordedRing},
		{name: "er-readd", graph: erGraph, readd: true},
		{name: "ring-readd", graph: chordedRing, readd: true},
		{name: "er-escalate", graph: erGraph, budget: Budget{MaxTouched: 4}},
		{name: "ring-escalate", graph: chordedRing, budget: Budget{MaxRounds: 2}},
	}
	for _, name := range []string{"distvec", "mis", "hypercube"} {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				escalations, repairs := 0, 0
				for seed := int64(1); seed <= 3; seed++ {
					g := c.graph(seed)
					rec := &recordingEngine{Engine: newVerifyEngine(t, name, g)}
					sup := &Supervisor{Engine: rec, Budget: c.budget}
					r := rand.New(rand.NewSource(seed))
					for b := 0; b < 30; b++ {
						events := churnBatch(r, g, 3, 3, c.readd)
						for _, e := range events {
							e.ApplyEdge(g)
						}
						rec.reset()
						rep, err := sup.HealBatch(events)
						if err != nil {
							t.Fatal(err)
						}
						repairs += rep.Repairs
						escalations += checkHeal(t, sup, rec, rep)
					}
				}
				if repairs == 0 {
					t.Fatal("no batch needed a repair; the churn tests nothing")
				}
				bounded := c.budget.MaxTouched > 0 || c.budget.MaxRounds > 0
				if !bounded && escalations != 0 {
					t.Fatalf("%d escalation(s) under an unbounded budget: the verify rejected a repair", escalations)
				}
				if bounded && name == "distvec" && escalations == 0 {
					t.Fatal("the tight budget never escalated")
				}
			})
		}
	}
}

// TestVerifyAfterWarmStart is the warm-start leg: labels saved before a
// burst of flips the engine never heard of, rebuilt over the changed
// topology and healed through HealDirty on the flips' endpoints, as a
// recovering server does.
func TestVerifyAfterWarmStart(t *testing.T) {
	for _, name := range []string{"distvec", "mis", "hypercube"} {
		for _, c := range []verifyCase{{name: "er", graph: erGraph}, {name: "ring", graph: chordedRing}} {
			t.Run(fmt.Sprintf("%s/%s", name, c.name), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					g := c.graph(seed)
					saved := newVerifyEngine(t, name, g.Clone())
					r := rand.New(rand.NewSource(seed))
					var dirty []int
					for b := 0; b < 4; b++ {
						for _, e := range churnBatch(r, g, 3, 3, true) {
							if e.ApplyEdge(g) {
								dirty = append(dirty, e.U, e.V)
							}
						}
					}
					var warm Engine
					var err error
					switch s := saved.(type) {
					case *distvecEngine:
						dist, next := s.RouteLabels()
						warm, err = NewDistVecEngineFromLabels(g, 0, dist, next)
					case *misEngine:
						warm, err = NewMISEngineFromLabels(g, s.MISLabels())
					case *cubeEngine:
						warm = &cubeEngine{g: g, faulty: s.faulty, levels: slices.Clone(s.levels), dim: s.dim}
					}
					if err != nil {
						t.Fatal(err)
					}
					rec := &recordingEngine{Engine: warm}
					sup := &Supervisor{Engine: rec}
					rep, err := sup.HealDirty(dirty)
					if err != nil {
						t.Fatal(err)
					}
					if esc := checkHeal(t, sup, rec, rep); esc != 0 {
						t.Fatalf("seed %d: warm heal escalated %d time(s)", seed, esc)
					}
				}
			})
		}
	}
}
