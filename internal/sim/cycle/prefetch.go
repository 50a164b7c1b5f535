package cycle

// prefetchBuffer models the per-TCU prefetch buffers of the XMT
// architecture (paper Fig. 1 and §IV-C): the compiler inserts pref
// instructions to fetch data ahead of use; a later load that finds its line
// in the buffer avoids the ~30-cycle shared-cache round trip. Entries store
// actual line bytes captured at the cache module when the fill was served,
// so a buffered line can be stale relative to memory — exactly the
// prefetch-reordering hazard the paper's memory-model discussion (Fig. 7)
// points out, and the reason prefix-sum completion flushes the buffer.
type prefetchBuffer struct {
	entries []pbufEntry
	lineSz  uint32
}

type pbufEntry struct {
	lineAddr uint32
	valid    bool
	ready    bool
	data     []byte
	lastUse  int64
	waiter   *TCU // a TCU blocked on this in-flight fill, if any
}

func newPrefetchBuffer(slots int, lineSize int) prefetchBuffer {
	return prefetchBuffer{entries: make([]pbufEntry, slots), lineSz: uint32(lineSize)}
}

func (b *prefetchBuffer) lineOf(addr uint32) uint32 {
	return addr &^ (b.lineSz - 1)
}

// find returns the entry holding addr's line, or nil.
func (b *prefetchBuffer) find(addr uint32) *pbufEntry {
	la := b.lineOf(addr)
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.lineAddr == la {
			return e
		}
	}
	return nil
}

// allocate reserves a slot for a new in-flight fill, evicting the LRU ready
// entry. It returns nil when every slot is occupied by an in-flight fill
// (the prefetch hint is then dropped).
func (b *prefetchBuffer) allocate(lineAddr uint32, cycle int64) *pbufEntry {
	var victim *pbufEntry
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid {
			victim = e
			break
		}
		if e.ready && (victim == nil || e.lastUse < victim.lastUse) {
			victim = e
		}
	}
	if victim == nil {
		return nil
	}
	evicted := victim.valid
	*victim = pbufEntry{lineAddr: lineAddr, valid: true, lastUse: cycle}
	if evicted {
		victim.lastUse = cycle
	}
	return victim
}

// read returns the word at addr from a ready entry's stale-capable copy.
func (e *pbufEntry) read(addr uint32, lineSz uint32) int32 {
	off := addr - e.lineAddr
	if int(off)+4 > len(e.data) {
		return 0
	}
	return int32(uint32(e.data[off]) | uint32(e.data[off+1])<<8 |
		uint32(e.data[off+2])<<16 | uint32(e.data[off+3])<<24)
}

// invalidateAll flushes the buffer (on fence and prefix-sum completion).
func (b *prefetchBuffer) invalidateAll() {
	for i := range b.entries {
		b.entries[i].valid = false
		b.entries[i].waiter = nil
		b.entries[i].data = nil
	}
}
