package bitset

import (
	"fmt"
	"testing"
)

func (a Set) members() []int {
	var out []int
	for i := a.Next(0); i >= 0; i = a.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

func TestSetWalk(t *testing.T) {
	a := New(130) // three words
	if len(a) != 3 || a.Next(0) != -1 || a.Next(192) != -1 {
		t.Fatalf("empty set: %d words, Next(0)=%d", len(a), a.Next(0))
	}
	for _, i := range []int{129, 0, 63, 64, 127, 128, 5} {
		a.Set(i)
	}
	if got, want := fmt.Sprint(a.members()), "[0 5 63 64 127 128 129]"; got != want {
		t.Fatalf("members = %s, want %s", got, want)
	}
	if !a.Has(64) || a.Has(65) {
		t.Fatalf("Has(64)=%v Has(65)=%v", a.Has(64), a.Has(65))
	}
	// A walk may drop the member it stands on and must see members added
	// ahead of it — in the same word and in a later one — but not behind it.
	var seen []int
	for i := a.Next(0); i >= 0; i = a.Next(i + 1) {
		seen = append(seen, i)
		a.Clear(i)
		if i == 5 {
			a.Set(3)
			a.Set(6)
			a.Set(100)
		}
	}
	if got, want := fmt.Sprint(seen), "[0 5 6 63 64 100 127 128 129]"; got != want {
		t.Fatalf("walk visited %s, want %s", got, want)
	}
	if got := fmt.Sprint(a.members()); got != "[3]" {
		t.Fatalf("after the walk members = %s, want [3]", got)
	}
}

// TestContains checks range-checked membership against a map over values
// that straddle word boundaries and lie on both sides of the range.
func TestContains(t *testing.T) {
	const n = 200
	s := New(n)
	want := map[int]bool{}
	for _, v := range []int{0, 1, 62, 63, 64, 65, 127, 128, 150, 191, 199} {
		s.Set(v)
		want[v] = true
	}
	for v := -65; v <= n+64; v++ {
		if s.Contains(v) != want[v] {
			t.Errorf("Contains(%d) = %v", v, s.Contains(v))
		}
	}
	if got := len(s.members()); got != len(want) {
		t.Fatalf("Next walks %d members, want %d", got, len(want))
	}
	if s.Next(n+64) != -1 || s.Next(151) != 191 {
		t.Errorf("Next(%d), Next(151) = %d, %d", n+64, s.Next(n+64), s.Next(151))
	}
}

func TestOrWithClone(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	b.Set(3)
	b.Set(70)
	c := a.Clone()
	if !a.OrWith(b) || a.OrWith(b) {
		t.Fatal("OrWith must report a change exactly once")
	}
	if got := fmt.Sprint(a.members(), c.members()); got != "[3 70] [3]" {
		t.Fatalf("union and clone = %s, want [3 70] [3]", got)
	}
}
