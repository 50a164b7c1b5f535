//go:build linux

package funcmodel

import "syscall"

const pageSize = 4096

// dropPages hands the whole pages of b[lo:hi], a range no run wrote since
// the buffer was made, back to the kernel, which maps them again, zeroed,
// only when they are written; the contents do not change. Go zeroes a large
// allocation by writing it whenever its pages were used before, which
// depends on where earlier garbage lay, so without this a pooled 64 MiB
// memory stayed resident in full in some processes and not in others. It
// runs once per buffer, at its first release: afterwards only pages a run
// writes become resident, and those are the dirty ranges.
func dropPages(b []byte, lo, hi uint32) {
	lo = (lo + pageSize - 1) &^ (pageSize - 1)
	hi &^= pageSize - 1
	if lo < hi {
		// A failure (a buffer that does not start on a page boundary)
		// only leaves the pages resident.
		_ = syscall.Madvise(b[lo:hi], syscall.MADV_DONTNEED)
	}
}
