package sim

import (
	mrand "math/rand"
	"math/rand/v2"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/hypercube"
)

// The builtin scenarios and the self-healing supervisors in internal/heal
// must agree on the topology a seed denotes: a violation found by `structura
// chaos -scenario mis -seed 7` has to reproduce under `structura heal
// -engine mis -seed 7` on the same graph. These builders are that shared
// vocabulary; each is a pure function of its seed.

const (
	misNodes     = 64
	misEdgeProb  = 0.08
	ringNodes    = 16
	ringChords   = 3
	distvecNodes = 32
	cubeDim      = 4
	cubeFaults   = 2
)

// MISGraph returns the seed's sparse Erdős–Rényi support used by the "mis"
// scenario (64 nodes, edge probability 0.08).
func MISGraph(seed uint64) *graph.Graph {
	// gen takes a math/rand (v1) source; seed it deterministically.
	return gen.SparseErdosRenyi(mrand.New(mrand.NewSource(int64(seed))), misNodes, misEdgeProb)
}

// ChordalRing builds a ring of n nodes plus `chords` seed-drawn chords — a
// connected support with alternative routes, so single link failures are
// survivable and partitions need coordinated cuts.
func ChordalRing(n, chords int, seed uint64) *graph.Graph {
	g := gen.Ring(n)
	rng := rand.New(rand.NewPCG(seed, 0x5851F42D4C957F2D))
	for i := 0; i < chords; i++ {
		for try := 0; try < 32; try++ {
			if g.TryAddEdge(rng.IntN(n), rng.IntN(n), 1) {
				break
			}
		}
	}
	return g
}

// ReversalRing returns the seed's chordal ring used by the reversal
// scenarios (16 nodes, 3 chords).
func ReversalRing(seed uint64) *graph.Graph {
	return ChordalRing(ringNodes, ringChords, seed)
}

// DistVecRing returns the seed's chordal ring used by the "distvec"
// scenario (32 nodes, 3 chords).
func DistVecRing(seed uint64) *graph.Graph {
	return ChordalRing(distvecNodes, ringChords, seed)
}

// CDSGrid returns the 6×8 grid the "cds" scenario labels.
func CDSGrid() *graph.Graph { return gen.Grid(6, 8) }

// FaultyCube returns the seed's 4-D hypercube with two seed-drawn faulty
// nodes, as used by the "hypercube" scenario.
func FaultyCube(seed uint64) *hypercube.Cube {
	rng := rand.New(rand.NewPCG(seed, 0x2545F4914F6CDD1D))
	faultSet := make(map[int]bool, cubeFaults)
	faults := make([]int, 0, cubeFaults)
	for len(faults) < cubeFaults {
		f := rng.IntN(1 << cubeDim)
		if !faultSet[f] {
			faultSet[f] = true
			faults = append(faults, f)
		}
	}
	cube, err := hypercube.New(cubeDim, faults)
	if err != nil {
		panic(err) // unreachable: cubeDim and the drawn faults are in range
	}
	return cube
}
