package engine

import (
	"fmt"
	"testing"
)

func (a Bitset) members() []int {
	var out []int
	for i := a.Next(0); i >= 0; i = a.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

func TestBitsetWalk(t *testing.T) {
	a := NewBitset(130) // three words
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
