// Package cycle implements XMTSim's cycle-accurate model: the
// transaction-level components of Fig. 1 — TCUs grouped into clusters with
// shared FPU/MDU units, prefetch buffers and a read-only cache per cluster,
// the mesh-of-trees interconnection network, address-hashed shared cache
// modules backed by DRAM ports, the global register file with its prefix-sum
// unit, the spawn-join unit with instruction broadcast, and the Master TCU
// with its private cache. Instruction packages originate at a TCU, travel
// through a specific set of components according to their type, and expire
// upon returning to the commit stage of the originating TCU; each component
// imposes a state-dependent delay (paper §III-A).
//
// Loads and stores are performed at the owning cache module, not at TCU
// commit, so non-blocking stores to different modules genuinely reorder —
// which is what makes the relaxed XMT memory model (and its litmus tests,
// Figs. 6-7) observable in simulation.
package cycle

import (
	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
)

// PkgKind classifies memory-system packages.
type PkgKind uint8

const (
	PkgLoad     PkgKind = iota // blocking load (lw/lb/lbu/lwro miss)
	PkgStore                   // blocking store (sw/sb)
	PkgStoreNB                 // posted non-blocking store (sw.nb)
	PkgPsm                     // prefix-sum to memory
	PkgPrefetch                // prefetch-buffer fill (carries the line back)
)

// Package is an instruction package traveling through the memory system.
// (As in the paper, "Package" here is a core simulator class, not a Java
// package.)
type Package struct {
	Kind PkgKind
	In   *isa.Instr // the issuing instruction, in Prog.Text (never copied)

	// Source routing: Cluster < 0 means the Master TCU.
	Cluster int
	TCU     int // TCU index within the cluster

	Addr uint32
	Data int32 // store data / psm increment; load result on the way back

	Line     []byte // line contents for prefetch fills
	LineAddr uint32

	Module int // destination cache module

	Issued engine.Time // when the TCU issued it (for latency stats)
	Hops   int         // ICN hops traversed (power accounting)
	Err    error       // memory fault discovered at the module

	// Shadow marks master packages that travel for timing only: the master
	// performs its memory operation architecturally at issue (serial mode
	// has a single memory agent), so the module must not re-apply it.
	Shadow bool
}

// pkgPool is a freelist of Packages owned by one sender (a cluster or the
// master). System.route is the single free point of a package that was sent.
type pkgPool []*Package

func (f *pkgPool) alloc() *Package {
	if n := len(*f); n > 0 {
		p := (*f)[n-1]
		(*f)[n-1] = nil
		*f = (*f)[:n-1]
		return p
	}
	return new(Package)
}

// free returns a delivered (or never-escaped) package to the freelist.
func (f *pkgPool) free(p *Package) {
	*p = Package{}
	*f = append(*f, p)
}
