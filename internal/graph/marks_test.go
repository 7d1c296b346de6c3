package graph

import "testing"

// TestMarksResetAndWrap: Reset empties the set, Add reports first insertion
// only, and a wrapped generation stamp forgets every stale mark.
func TestMarksResetAndWrap(t *testing.T) {
	var m Marks
	m.Reset(4)
	if !m.Add(2) || m.Add(2) || !m.Has(2) || m.Has(1) {
		t.Fatal("Add/Has disagree on a fresh set")
	}
	m.Reset(4)
	if m.Has(2) {
		t.Fatal("Reset kept a mark")
	}
	m.Add(3)
	m.gen = ^uint32(0) // the next Reset wraps the stamp
	m.stamp[1] = 0
	m.Reset(4)
	for v := 0; v < 4; v++ {
		if m.Has(v) {
			t.Fatalf("node %d still marked after the stamp wrapped", v)
		}
	}
	m.Reset(9)
	if !m.Add(8) || !m.Has(8) {
		t.Fatal("Reset did not grow the set")
	}
}
