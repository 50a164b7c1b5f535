package funcmodel_test

import (
	"runtime"
	"syscall"
	"testing"
	"unsafe"

	"xmtgo/internal/sim/funcmodel"
)

// residentBytes counts the bytes of b the kernel holds in memory.
func residentBytes(t *testing.T, b []byte) int {
	vec := make([]byte, (len(b)+4095)/4096)
	if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0]))); e != 0 {
		t.Fatalf("mincore: %v", e)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n * 4096
}

var churnSink [][]byte

// TestPooledMemoryNotResident: a memory back from the pool is resident only
// where a run wrote it, also when the heap's earlier garbage made Go zero
// the allocation by writing it. Without that a pooled 64 MiB machine memory
// was resident in full in some processes and not in others.
func TestPooledMemoryNotResident(t *testing.T) {
	// Leave used, freed pages at the heap's end, which a large allocation
	// reuses and Go then zeroes by writing.
	for i := 0; i < 20; i++ {
		b := make([]byte, 1<<20)
		for j := range b {
			b[j] = 1
		}
		if i%2 == 0 {
			churnSink = append(churnSink, b)
		}
	}
	churnSink = churnSink[:5]
	runtime.GC()

	const size = 48 << 20 // a size no other test pools
	p := mustProgram(t, "main: li $t0, 7\n sw $t0, -4($sp)\n sys 0\n")
	m, err := funcmodel.New(p, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	m.ReleaseMemory()
	m, err = funcmodel.New(p, size, nil) // the pooled buffer
	if err != nil {
		t.Fatal(err)
	}
	defer m.ReleaseMemory()
	if n := residentBytes(t, m.Mem); n > 1<<20 {
		t.Fatalf("%d MiB of a pooled %d MiB memory resident", n>>20, size>>20)
	}
	for i, c := range m.Mem {
		if c != 0 {
			t.Fatalf("pooled memory not zero at %#x", i)
		}
	}
}
