package runtime

import (
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	const n = 130 // spans three words with a partial tail
	b := newBitset(n)
	if len(b.appendBits(nil)) != 0 {
		t.Fatal("fresh bitset not empty")
	}
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.set(v)
		if !b.get(v) {
			t.Fatalf("bit %d not set", v)
		}
	}
	got := b.appendBits(nil)
	want := []int{0, 1, 63, 64, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("appendBits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("appendBits = %v, want %v", got, want)
		}
	}
	b.setAll(n)
	if got := len(b.appendBits(nil)); got != n {
		t.Fatalf("setAll set %d bits, want %d", got, n)
	}
	// The tail bits beyond n must stay clear so iteration never emits a
	// node at or past n.
	for _, v := range b.appendBits(nil) {
		if v < 0 || v >= n {
			t.Fatalf("appendBits emitted out-of-range node %d", v)
		}
	}
	b.reset()
	if len(b.appendBits(nil)) != 0 {
		t.Fatal("reset left bits set")
	}
}

// FuzzBitset drives the bitset with an arbitrary op tape and cross-checks
// every observation against a map-based reference model.
func FuzzBitset(f *testing.F) {
	f.Add([]byte{0, 5, 1, 5, 0, 64, 2, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 63, 0, 64, 0, 127, 1, 64, 4, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 150
		b := newBitset(n)
		ref := make(map[int]bool)
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i]%4, int(tape[i+1])%n
			switch op {
			case 0:
				b.set(arg)
				ref[arg] = true
			case 1:
				b.reset()
				ref = make(map[int]bool)
			case 2:
				b.setAll(n)
				for v := 0; v < n; v++ {
					ref[v] = true
				}
			case 3:
				if b.get(arg) != ref[arg] {
					t.Fatalf("get(%d) = %v, model %v", arg, b.get(arg), ref[arg])
				}
			}
		}
		seen := 0
		prev := -1
		for _, v := range b.appendBits(nil) {
			if v <= prev || v >= n {
				t.Fatalf("appendBits not ascending in range: %d after %d", v, prev)
			}
			if !ref[v] {
				t.Fatalf("appendBits emitted %d, not in model", v)
			}
			prev = v
			seen++
		}
		if seen != len(ref) {
			t.Fatalf("appendBits emitted %d bits, model %d", seen, len(ref))
		}
	})
}
