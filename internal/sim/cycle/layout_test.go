package cycle

import (
	"testing"
	"unsafe"
)

// TestTCULayout pins the cache-line layout TCU's doc comment promises: the
// struct is a whole number of 64-byte lines (so the lines of a []TCU backing
// array stay aligned element to element), and everything a tick reads before
// it touches an operand register sits on the one line that ends ctx.
func TestTCULayout(t *testing.T) {
	const line = 64
	var tcu TCU
	if sz := unsafe.Sizeof(tcu); sz%line != 0 {
		t.Fatalf("sizeof(TCU) = %d, not a multiple of %d: adjust tcuPad", sz, line)
	}
	if off := unsafe.Offsetof(tcu.tcuHot); off != 0 {
		t.Fatalf("tcuHot at offset %d, want 0", off)
	}
	pc := unsafe.Offsetof(tcu.ctx) + unsafe.Offsetof(tcu.ctx.PC)
	for name, off := range map[string]uintptr{
		"stallUntil":    unsafe.Offsetof(tcu.stallUntil),
		"state":         unsafe.Offsetof(tcu.state),
		"failing":       unsafe.Offsetof(tcu.failing),
		"pendingNB":     unsafe.Offsetof(tcu.pendingNB),
		"pendingSend":   unsafe.Offsetof(tcu.pendingSend),
		"pendingSendPC": unsafe.Offsetof(tcu.pendingSendPC) + unsafe.Sizeof(tcu.pendingSendPC) - 1,
	} {
		if off/line != pc/line {
			t.Errorf("%s at byte %d is not on ctx.PC's cache line (byte %d)", name, off, pc)
		}
	}
}
