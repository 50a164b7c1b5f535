package cycle

// tagArray is a set-associative, LRU tag store. The simulated memory data
// always lives in the functional model (the shared cache modules are the
// coherence point of XMT's shared L1, so a module's data equals memory);
// tag arrays model hit/miss timing only. Prefetch buffers are the one place
// that stores actual (possibly stale) line data — see prefetch.go.
type tagArray struct {
	lineShift uint
	setMask   uint32
	assoc     int
	tags      []uint32
	valid     []bool
	lastUse   []int64
}

func log2u(v uint32) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// newTagArray builds a tag store with the given total line count,
// associativity and line size (both powers of two are required by config
// validation; line count is rounded down to a multiple of assoc sets).
func newTagArray(lines, assoc, lineSize int) *tagArray {
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	n := sets * assoc
	return &tagArray{
		lineShift: log2u(uint32(lineSize)),
		setMask:   uint32(sets - 1),
		assoc:     assoc,
		tags:      make([]uint32, n),
		valid:     make([]bool, n),
		lastUse:   make([]int64, n),
	}
}

func (t *tagArray) set(addr uint32) int {
	return int((addr >> t.lineShift) & t.setMask)
}

// Lookup probes the tag store, updating LRU state on a hit.
func (t *tagArray) Lookup(addr uint32, cycle int64) bool {
	line := addr >> t.lineShift
	base := t.set(addr) * t.assoc
	for w := 0; w < t.assoc; w++ {
		if t.valid[base+w] && t.tags[base+w] == line {
			t.lastUse[base+w] = cycle
			return true
		}
	}
	return false
}

// Fill installs the line, evicting the LRU way.
func (t *tagArray) Fill(addr uint32, cycle int64) {
	line := addr >> t.lineShift
	base := t.set(addr) * t.assoc
	victim := base
	for w := 0; w < t.assoc; w++ {
		i := base + w
		if !t.valid[i] {
			victim = i
			break
		}
		if t.lastUse[i] < t.lastUse[victim] {
			victim = i
		}
	}
	t.tags[victim] = line
	t.valid[victim] = true
	t.lastUse[victim] = cycle
}

// InvalidateAll flash-clears the tag store (used at spawn boundaries for
// the master cache and cluster read-only caches).
func (t *tagArray) InvalidateAll() {
	for i := range t.valid {
		t.valid[i] = false
	}
}
