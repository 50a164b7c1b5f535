package funcvm

import (
	"xmtgo/internal/asm"
	"xmtgo/internal/sim/funcmodel"
)

// Spans returns the span of every word of p's lowering: 1 for a plain
// word, the idiom's length for a word that starts a superinstruction.
func Spans(p *asm.Program) []int {
	c := NewCode(p)
	spans := make([]int, c.Len())
	for i := range spans {
		spans[i] = int(c.words[i].span)
	}
	return spans
}

// RunCounted runs m to completion like Attach(m).Run(budget) on a private
// lowering whose every word counts its dispatches, and returns that count:
// the number of words the untraced dispatch loop executed.
func RunCounted(m *funcmodel.Machine, budget uint64) (words uint64, err error) {
	c := lower(m.Prog)
	for i := range c.words {
		run := c.words[i].run
		c.words[i].run = func(v *VM, w *word) *word {
			words++
			return run(v, w)
		}
		plain := c.words[i].plain
		c.words[i].plain = func(v *VM, w *word) *word {
			words++
			return plain(v, w)
		}
	}
	v, err := AttachCode(m, c)
	if err != nil {
		return 0, err
	}
	err = v.Run(budget)
	return words, err
}
