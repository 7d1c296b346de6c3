package centrality

import (
	"math"
	"slices"
	"sort"
	"testing"

	"structura/internal/gen"
	"structura/internal/stats"
)

// refRanking is the order Ranking must return, written independently of
// it: a stable sort of the IDs by descending score, NaNs after every
// number.
func refRanking(scores []float64) []int {
	ids := make([]int, len(scores))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(i, j int) bool {
		a, b := scores[ids[i]], scores[ids[j]]
		if math.IsNaN(b) {
			return !math.IsNaN(a)
		}
		return a > b
	})
	return ids
}

// erDegrees is the degree vector of a 100k-node Erdős–Rényi graph of
// average degree 10, the served ranking's input at the benchmark's scale.
func erDegrees() []float64 {
	const n = 100_000
	return Degree(gen.SparseErdosRenyi(stats.NewRand(1), n, 10.0/(n-1)))
}

func checkRanking(t *testing.T, name string, scores []float64) {
	t.Helper()
	if got, want := Ranking(scores), refRanking(scores); !slices.Equal(got, want) {
		if len(scores) > 64 {
			t.Fatalf("%s: Ranking differs from the reference order", name)
		}
		t.Fatalf("%s: Ranking(%v) = %v, want %v", name, scores, got, want)
	}
}

// A NaN score used to make the comparator inconsistent, so the sort
// scrambled the real scores around it.
func TestRankingNaN(t *testing.T) {
	nan := math.NaN()
	got := Ranking([]float64{1, nan, 3, 2, nan, 5, 0, 4})
	if want := []int{5, 7, 2, 3, 0, 6, 1, 4}; !slices.Equal(got, want) {
		t.Fatalf("Ranking = %v, want %v", got, want)
	}
	scores := make([]float64, 40)
	for i := range scores {
		scores[i] = float64(i % 7)
	}
	scores[10] = nan
	checkRanking(t, "40 nodes, i%7, NaN at 10", scores)
}

// TestRankingMatchesComparator pins the counting path and the comparison
// path to the same order: random integer scores (counting), boundary
// tables on either side of the counting guard, and the 100k ER degrees.
func TestRankingMatchesComparator(t *testing.T) {
	r := stats.NewRand(17)
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(64)
		scores := make([]float64, n)
		hi := 1 + r.Intn(n+1)
		for i := range scores {
			scores[i] = float64(r.Intn(hi))
		}
		checkRanking(t, "random integers", scores)
	}

	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name   string
		scores []float64
	}{
		{"empty", nil},
		{"single", []float64{0}},
		{"single one", []float64{1}},
		{"all equal", []float64{2, 2, 2, 2}},
		{"score n", []float64{1, 4, 0, 4}},
		{"score n+1", []float64{1, 5, 0, 4}},
		{"negative", []float64{1, -1, 0, 2}},
		{"fraction", []float64{1, 0.5, 0, 2}},
		{"negative zero", []float64{0, negZero, 1, negZero, 0}},
		{"+Inf", []float64{1, inf, 0, 2}},
		{"-Inf", []float64{1, -inf, 0, 2}},
		{"NaN", []float64{1, nan, 0, nan, 2}},
		{"all NaN", []float64{nan, nan, nan}},
	} {
		checkRanking(t, tc.name, tc.scores)
	}

	checkRanking(t, "100k ER degrees", erDegrees())
}

// FuzzRanking checks, for any scores, that Ranking is a permutation in the
// reference order. Bytes below 0xe0 become small integers (the counting
// path); the rest pick a value that fails its guard.
func FuzzRanking(f *testing.F) {
	f.Add([]byte{1, 3, 3, 0})
	f.Add([]byte{1, 0xe0, 3, 2, 0xe0, 5, 0, 4})
	f.Add([]byte{0, 0xe5, 1, 0xe5})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5,
			math.Copysign(0, -1), float64(n), float64(n + 1)}
		scores := make([]float64, n)
		for i, b := range data {
			if b < 0xe0 {
				scores[i] = float64(b & 0x1f)
			} else {
				scores[i] = special[b&7]
			}
		}
		got := Ranking(scores)
		if len(got) != n {
			t.Fatalf("Ranking(%v) = %v has %d IDs, want %d", scores, got, len(got), n)
		}
		seen := make([]bool, n)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Ranking(%v) = %v is not a permutation", scores, got)
			}
			seen[v] = true
		}
		if want := refRanking(scores); !slices.Equal(got, want) {
			t.Fatalf("Ranking(%v) = %v, want %v", scores, got, want)
		}
	})
}

var rankingSink []int

// BenchmarkRanking prices one ranking of 100k ER degree scores on each
// path: the degrees themselves take the counting sort, and the same
// scores plus 0.5 (same order, no longer integers) the comparison sort.
func BenchmarkRanking(b *testing.B) {
	deg := erDegrees()
	frac := make([]float64, len(deg))
	for i, d := range deg {
		frac[i] = d + 0.5
	}
	for _, leg := range []struct {
		name   string
		scores []float64
	}{{"degrees100k", deg}, {"float100k", frac}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rankingSink = Ranking(leg.scores)
			}
		})
	}
}
