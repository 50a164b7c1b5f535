package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmtgo/internal/isa"
)

func filledCollector() *Collector {
	c := NewCollector(2, 4, 2)
	c.MasterInstrs = 40
	c.MasterByUnit[isa.UnitALU] = 40
	c.Cluster[0] = ClusterStats{MemWaitCycles: 5, SendStallCycles: 2}
	c.Cluster[0].ByUnit[isa.UnitALU] = 30
	c.Cluster[1] = ClusterStats{FPUWaitCycles: 3, PSWaitCycles: 1}
	c.Cluster[1].ByUnit[isa.UnitMEM] = 30
	c.CacheHits[1] = 9
	c.CacheMisses[1] = 1
	c.CacheQueueFull[0] = 4
	c.DRAMAccesses[0] = 7
	c.ICNTraversals = 11
	c.ICNHops = 44
	c.PsOps = 5
	c.SpawnCount = 1
	c.VirtualThreads = 16
	c.MemFaults = 2
	c.TCUFailFaults = 1
	c.TCUsDecommissioned = 1
	c.LoadLatency.Observe(100)
	c.LoadLatency.Observe(300)
	c.PSLatency.Observe(8)
	return c
}

func TestSnapshotSchema(t *testing.T) {
	s := filledCollector().Snapshot(1234, 9872)
	if s.Schema != SnapshotSchema {
		t.Fatalf("schema %q", s.Schema)
	}
	if s.Cycle != 1234 || s.Ticks != 9872 {
		t.Fatalf("coords %d/%d", s.Cycle, s.Ticks)
	}
	if s.Instructions.Total != 100 || s.Instructions.Master != 40 || s.Instructions.TCU != 60 ||
		s.Instructions.ByUnit["ALU"] != 70 || s.Instructions.ByUnit["MEM"] != 30 {
		t.Errorf("instructions %+v", s.Instructions)
	}
	if s.Stalls.Mem != 5 || s.Stalls.FPUMDU != 3 || s.Stalls.PS != 1 || s.Stalls.ICNSend != 2 {
		t.Errorf("stalls %+v", s.Stalls)
	}
	if s.Memory.CacheHits != 9 || s.Memory.CacheMisses != 1 || s.Memory.DRAMTotal != 7 {
		t.Errorf("memory %+v", s.Memory)
	}
	if s.Memory.LoadLatency.Count != 2 || s.Memory.LoadLatency.Sum != 400 {
		t.Errorf("load latency %+v", s.Memory.LoadLatency)
	}
	if s.Faults.Injected != 3 || s.Faults.TCUFail != 1 || s.Faults.Decommissioned != 1 {
		t.Errorf("faults %+v", s.Faults)
	}
	if len(s.Clusters) != 2 || s.Clusters[0].TCUInstrs != 30 || s.Clusters[0].ALUOps != 30 ||
		s.Clusters[1].MemOps != 30 || s.Clusters[1].ALUOps != 0 {
		t.Errorf("clusters %+v", s.Clusters)
	}
}

func TestSnapshotWriteJSONDeterministic(t *testing.T) {
	c := filledCollector()
	var a, b bytes.Buffer
	if err := c.Snapshot(10, 80).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(10, 80).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteJSON not deterministic")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Fatal("missing trailing newline")
	}
	// Round-trips as JSON and keeps the schema marker first-class.
	var m map[string]any
	if err := json.Unmarshal(a.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["schema"] != SnapshotSchema {
		t.Fatalf("schema field = %v", m["schema"])
	}
}

func TestSnapshotHistBuckets(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(2)
	h.Observe(2)
	h.Observe(1000)
	hs := SnapshotHist(&h)
	if hs.Count != 4 || hs.Sum != 1005 || hs.Max != 1000 {
		t.Fatalf("summary %+v", hs)
	}
	var total uint64
	for _, b := range hs.Buckets {
		if b[0] > b[1] {
			t.Errorf("bucket lo %d > hi %d", b[0], b[1])
		}
		total += b[2]
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
}
