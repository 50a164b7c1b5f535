package stats

import (
	"bytes"
	"strings"
	"testing"

	"xmtgo/internal/isa"
)

func TestInstrCounting(t *testing.T) {
	c := NewCollector(4, 8, 2)
	c.CountInstr(isa.OpAdd, 0, false)
	c.CountInstr(isa.OpAdd, 0, false)
	c.CountInstr(isa.OpMul, 1, false)
	c.CountInstr(isa.OpLw, 2, false)
	c.CountInstr(isa.OpAddS, 3, false)
	c.CountInstr(isa.OpJal, -1, true)
	if c.TotalInstrs() != 6 || c.MasterInstrs != 1 || c.TCUInstrs() != 5 {
		t.Fatalf("totals wrong: %d/%d/%d", c.TotalInstrs(), c.MasterInstrs, c.TCUInstrs())
	}
	s := c.Snapshot(0, 0)
	if u := s.Instructions.ByUnit; u[isa.UnitALU.String()] != 2 || u[isa.UnitMDU.String()] != 1 || u[isa.UnitBR.String()] != 1 {
		t.Fatalf("per-unit count wrong: %v", u)
	}
	if r := s.Clusters; r[0].ALUOps != 2 || r[1].MDUOps != 1 || r[2].MemOps != 1 || r[3].FPUOps != 1 {
		t.Fatal("per-cluster counts wrong")
	}
}

func TestMemCounting(t *testing.T) {
	c := NewCollector(1, 4, 1)
	c.CountMem(0x100, isa.OpLw, 2, true)
	c.CountMem(0x104, isa.OpLw, 2, false)
	c.CountMem(0x108, isa.OpPsm, 3, true)
	m := c.Snapshot(0, 0).Memory
	if hits, misses := m.CacheHits, m.CacheMisses; hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestHotLocationsFilter(t *testing.T) {
	h := NewHotLocations(32, 3)
	c := NewCollector(1, 1, 1)
	c.AddFilter(h)
	for i := 0; i < 10; i++ {
		c.CountMem(0x1000, isa.OpLw, 0, true) // bucket 0x1000 ×10
	}
	for i := 0; i < 5; i++ {
		c.CountMem(0x2004, isa.OpSw, 0, true) // bucket 0x2000 ×5
	}
	c.CountMem(0x3000, isa.OpLw, 0, false)
	top := h.Top()
	if len(top) != 3 {
		t.Fatalf("top has %d entries", len(top))
	}
	if top[0].Addr != 0x1000 || top[0].Count != 10 {
		t.Fatalf("hottest = %+v", top[0])
	}
	if top[1].Addr != 0x2000 || top[1].Count != 5 {
		t.Fatalf("second = %+v", top[1])
	}
	var buf bytes.Buffer
	h.Report(&buf)
	if !strings.Contains(buf.String(), "0x00001000: 10 accesses") {
		t.Fatalf("report:\n%s", buf.String())
	}
}

func TestOpHistogramFilter(t *testing.T) {
	h := &OpHistogram{}
	c := NewCollector(1, 1, 1)
	c.AddFilter(h)
	for i := 0; i < 7; i++ {
		c.CountInstr(isa.OpAddiu, 0, false)
	}
	c.CountInstr(isa.OpSys, -1, true)
	if h.Count(isa.OpAddiu) != 7 {
		t.Fatal("histogram count wrong")
	}
	var buf bytes.Buffer
	h.Report(&buf)
	if !strings.Contains(buf.String(), "addiu=7") {
		t.Fatalf("report: %s", buf.String())
	}
}

func TestReport(t *testing.T) {
	c := NewCollector(2, 2, 1)
	c.CountInstr(isa.OpAdd, 0, false)
	c.SpawnCount = 3
	c.VirtualThreads = 100
	c.PrefetchHits = 5
	for i := 0; i < 8; i++ {
		c.LoadLatency.Observe(80)
	}
	var buf bytes.Buffer
	c.Report(&buf)
	out := buf.String()
	for _, want := range []string{"spawns=3", "virtual_threads=100", "hits=5", "avg load latency: 80.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
