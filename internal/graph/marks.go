package graph

// Marks is a reusable set of node IDs for hot loops that fill and clear a
// set once per batch: membership is a generation stamp per node, so Reset
// clears the whole set in O(1) and Add allocates nothing. The zero value
// is an empty set over no nodes; Reset sizes it. Not safe for concurrent
// use.
type Marks struct {
	stamp []uint32
	gen   uint32
}

// Reset empties the set and sizes it to hold node IDs in [0, n).
func (m *Marks) Reset(n int) {
	if len(m.stamp) < n {
		m.stamp = make([]uint32, n)
		m.gen = 0
	}
	m.gen++
	if m.gen == 0 { // the stamp wrapped: forget every stale mark
		clear(m.stamp)
		m.gen = 1
	}
}

// Has reports whether v is in the set.
func (m *Marks) Has(v int) bool { return m.stamp[v] == m.gen }

// Add puts v in the set and reports whether it was absent.
func (m *Marks) Add(v int) bool {
	if m.stamp[v] == m.gen {
		return false
	}
	m.stamp[v] = m.gen
	return true
}
