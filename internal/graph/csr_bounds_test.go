package graph

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestCheckCSRBounds pins the int32 size gate shared by Freeze, FreezeChecked,
// and NewCSR: oversized node or half-edge counts yield the typed ErrTooLarge
// (never a silent truncation), and in-range counts pass.
func TestCheckCSRBounds(t *testing.T) {
	for _, tc := range []struct {
		n, half int
		ok      bool
	}{
		{0, 0, true},
		{10, 40, true},
		{math.MaxInt32 - 1, math.MaxInt32, true},
		{math.MaxInt32, 0, false},
		{math.MaxInt32 + 1, 0, false},
		{10, math.MaxInt32 + 1, false},
	} {
		err := CheckCSRBounds(tc.n, tc.half)
		if tc.ok && err != nil {
			t.Errorf("CheckCSRBounds(%d, %d) = %v, want nil", tc.n, tc.half, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("CheckCSRBounds(%d, %d) = nil, want ErrTooLarge", tc.n, tc.half)
			} else if !errors.Is(err, ErrTooLarge) {
				t.Errorf("CheckCSRBounds(%d, %d) = %v, not wrapping ErrTooLarge", tc.n, tc.half, err)
			}
		}
	}
}

// TestFreezeChecked: the checked entry point produces the same snapshot as
// Freeze on graphs that fit.
func TestFreezeChecked(t *testing.T) {
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := g.FreezeChecked()
	if err != nil {
		t.Fatalf("FreezeChecked: %v", err)
	}
	want := g.Freeze()
	if c.N() != want.N() || c.M() != want.M() {
		t.Fatalf("FreezeChecked snapshot differs: n=%d m=%d, want n=%d m=%d",
			c.N(), c.M(), want.N(), want.M())
	}
	for v := 0; v < c.N(); v++ {
		if !reflect.DeepEqual(c.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("node %d rows differ: %v vs %v", v, c.Neighbors(v), want.Neighbors(v))
		}
	}
}

// TestNewCSRValidation exercises every rejection branch of the direct
// assembler, then the happy paths (nil weights backing, reverse adjacency on
// directed input, array retention).
func TestNewCSRValidation(t *testing.T) {
	valid := func() ([]int32, []int32, []float64) {
		return []int32{0, 2, 3, 4}, []int32{1, 2, 0, 0}, []float64{1, 2, 3, 4}
	}
	if _, err := NewCSR(false, 2, nil, nil, nil); err == nil {
		t.Error("empty offsets must fail")
	}
	if _, err := NewCSR(false, 2, []int32{1, 4}, make([]int32, 4), nil); err == nil {
		t.Error("offsets not starting at 0 must fail")
	}
	if _, err := NewCSR(false, 2, []int32{0, 3, 2, 4}, make([]int32, 4), nil); err == nil {
		t.Error("decreasing offsets must fail")
	}
	if _, err := NewCSR(false, 2, []int32{0, 2, 3, 3}, make([]int32, 4), nil); err == nil {
		t.Error("offsets not ending at len(targets) must fail")
	}
	{
		off, tgt, _ := valid()
		tgt[1] = 3 // out of range for n=3
		if _, err := NewCSR(false, 2, off, tgt, nil); err == nil {
			t.Error("out-of-range target must fail")
		}
	}
	{
		off, tgt, _ := valid()
		if _, err := NewCSR(false, 2, off, tgt, []float64{1}); err == nil {
			t.Error("weights/targets length mismatch must fail")
		}
		if _, err := NewCSR(false, -1, off, tgt, nil); err == nil {
			t.Error("negative m must fail")
		}
	}

	off, tgt, w := valid()
	c, err := NewCSR(true, 4, off, tgt, w)
	if err != nil {
		t.Fatalf("valid directed NewCSR: %v", err)
	}
	if c.N() != 3 || c.M() != 4 || !c.Directed() {
		t.Fatalf("header wrong: n=%d m=%d directed=%v", c.N(), c.M(), c.Directed())
	}
	if got := c.Neighbors(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("row 0 = %v", got)
	}
	// Reverse adjacency is materialized: node 0 is entered from 1 and 2.
	if got := c.InNeighbors(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("in-neighbors of 0 = %v", got)
	}
	if c.InDegree(1) != 1 || c.InDegree(2) != 1 {
		t.Fatalf("in-degrees wrong: %d %d", c.InDegree(1), c.InDegree(2))
	}
	if got := c.InNeighborWeights(0); !reflect.DeepEqual(got, []float64{3, 4}) {
		t.Fatalf("in-weights of 0 = %v", got)
	}

	// nil weights are backed by zeros.
	off2, tgt2, _ := valid()
	c2, err := NewCSR(false, 2, off2, tgt2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.NeighborWeights(0); got[0] != 0 || got[1] != 0 {
		t.Fatalf("nil weights not zero-backed: %v", got)
	}

	// Oversized inputs hit the shared bounds gate before any element is
	// read, so the offsets can be address space that is never committed.
	if huge, ok := reservedInt32s(t, math.MaxInt32+1); !ok {
		t.Log("no uncommitted reservation on this platform; oversized-n case skipped")
	} else if _, err := NewCSR(false, 0, huge, nil, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized n: err=%v, want ErrTooLarge", err)
	}
}
