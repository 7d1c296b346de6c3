package graph

import "testing"

// TestEdgeAcceptanceRule pins the one edge-acceptance rule every live
// topology mutates under: each row applies a sequence of edge ops to a
// 4-node path 0-1-2-3 and checks which ops were accepted and the edge count
// left behind.
func TestEdgeAcceptanceRule(t *testing.T) {
	type op struct {
		add  bool
		u, v int
	}
	rows := []struct {
		name  string
		ops   []op
		want  []bool
		edges int
	}{
		{"fresh add", []op{{true, 0, 3}}, []bool{true}, 4},
		{"self-loop", []op{{true, 2, 2}}, []bool{false}, 3},
		{"duplicate add", []op{{true, 0, 1}}, []bool{false}, 3},
		{"duplicate add reversed", []op{{true, 1, 0}}, []bool{false}, 3},
		{"missing remove", []op{{false, 0, 3}}, []bool{false}, 3},
		{"out-of-range add", []op{{true, 0, 4}, {true, -1, 2}}, []bool{false, false}, 3},
		{"out-of-range remove", []op{{false, 3, 4}, {false, -1, 0}}, []bool{false, false}, 3},
		{"remove then re-add", []op{{false, 1, 2}, {true, 2, 1}}, []bool{true, true}, 3},
		{"remove twice", []op{{false, 1, 2}, {false, 1, 2}}, []bool{true, false}, 2},
		{"add twice", []op{{true, 0, 2}, {true, 0, 2}}, []bool{true, false}, 4},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			g := New(4)
			for i := 0; i < 3; i++ {
				_ = g.AddEdge(i, i+1)
			}
			for i, o := range row.ops {
				var got bool
				if o.add {
					if can := g.CanAddEdge(o.u, o.v); can != row.want[i] {
						t.Fatalf("op %d CanAddEdge(%d,%d) = %v, want %v", i, o.u, o.v, can, row.want[i])
					}
					got = g.TryAddEdge(o.u, o.v, 1)
				} else {
					got = g.RemoveEdge(o.u, o.v)
				}
				if got != row.want[i] {
					t.Fatalf("op %d %+v accepted = %v, want %v", i, o, got, row.want[i])
				}
			}
			if g.M() != row.edges {
				t.Fatalf("%d edge(s) left, want %d", g.M(), row.edges)
			}
		})
	}
}
