package cycle

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xmtgo/internal/asm"
	"xmtgo/internal/codegen"
	"xmtgo/internal/config"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/funcmodel"
)

func members(a activeSet) []int {
	var out []int
	for i := a.Next(0); i >= 0; i = a.Next(i + 1) {
		out = append(out, i)
	}
	return out
}

// memKernelSrc is Table I's parallel-memory kernel — the workload of
// TestOptimisticRollbackOccurs, restated because internal/workloads imports
// this package — between two serial sections, so cluster ports, the master
// port, every arrival queue and every module see traffic in one run.
func memKernelSrc(threads int) string {
	n := threads * 8
	return fmt.Sprintf(`
int A[%d];
int sink = 0;
int main() {
    int k, acc = 0;
    for (k = 0; k < 48; k++) {
        A[(k * 53) %% %d] = k + 1;
    }
    spawn(0, %d) {
        int i;
        int s = 0;
        for (i = 0; i < 8; i++) {
            s += A[($ * 37 + i * 61) %% %d];
        }
        psm(s, sink);
    }
    for (k = 0; k < 48; k++) {
        acc += A[(k * 97) %% %d];
        A[(k * 89 + 13) %% %d] = acc;
    }
    print_int(sink + acc);
    return 0;
}`, n, n, threads-1, n, n, n)
}

func compileKernel(t *testing.T, threads int) (*asm.Program, string) {
	t.Helper()
	res, err := codegen.Compile("memkernel.c", memKernelSrc(threads), codegen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(res.Unit)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := funcmodel.New(prog, 1<<20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil || !m.Halted {
		t.Fatalf("functional oracle: halted=%v err=%v", m.Halted, err)
	}
	return prog, out.String()
}

// checkActiveSets is the invariant: every non-empty queue of the memory
// system has its bit set (a set bit over an empty queue is legal). A queue
// outside its set is never visited again — the hang this test hunts.
func checkActiveSets(t *testing.T, s *System) {
	t.Helper()
	now := s.Sched.Now()
	for i, c := range s.clusters {
		if len(c.sendQ) > 0 && !s.icn.ports.Has(i) {
			t.Fatalf("t=%d: cluster %d holds %d packages outside icn.ports", now, i, len(c.sendQ))
		}
	}
	if len(s.master.sendQ) > 0 && !s.icn.ports.Has(len(s.clusters)) {
		t.Fatalf("t=%d: master holds %d packages outside icn.ports", now, len(s.master.sendQ))
	}
	for m, q := range s.icn.arrival {
		if len(q) > 0 && !s.icn.arriving.Has(m) {
			t.Fatalf("t=%d: %d packages in flight to module %d outside icn.arriving", now, len(q), m)
		}
	}
	for m, cm := range s.modules {
		if len(cm.serviceQ) > cm.head && !s.cacheActive.Has(m) {
			t.Fatalf("t=%d: module %d queues %d requests outside cacheActive", now, m, len(cm.serviceQ)-cm.head)
		}
	}
}

// stepRun is System.Run with the invariant asserted after every event.
func stepRun(t *testing.T, s *System, after func()) {
	t.Helper()
	defer s.pool.Close()
	s.start(10_000_000)
	for s.Sched.Step() {
		checkActiveSets(t, s)
		if after != nil {
			after()
		}
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
}

type setPreset struct {
	name string
	cfg  config.Config
}

func setPresets() []setPreset {
	wide := config.FPGA64() // multi-word sets: 129 ports, 128 modules
	wide.Name, wide.Clusters, wide.TCUsPerCluster, wide.CacheModules = "wide128", 128, 2, 128
	ps := []setPreset{{"fpga64", config.FPGA64()}, {"chip1024", config.Chip1024()}, {"wide128", wide}}
	for i := range ps {
		ps[i].cfg.MemBytes = 1 << 20 // the kernel needs 32 KiB; building a system zeroes all of it
	}
	return ps
}

func TestActiveSetInvariant(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*config.Config)
	}{
		{"derived", func(*config.Config) {}},
		{"lookahead1", func(c *config.Config) { c.Lookahead = 1 }},
		{"async", func(c *config.Config) { c.ICNAsync = true }},
		{"optimistic", func(c *config.Config) { c.EngineMode = config.EngineOptimistic }},
		{"workers2", func(c *config.Config) { c.HostWorkers = 2 }},
		{"faults", func(c *config.Config) {
			c.FaultPlan = "icndup:6@30-1500;icndrop:4x4@30-1500;icndelay:4x40@30-1500;cachestall:48x150@30-1500"
			c.FaultSeed = 7
		}},
	}
	for _, p := range setPresets() {
		prog, want := compileKernel(t, p.cfg.TCUs())
		for _, v := range variants {
			t.Run(p.name+"/"+v.name, func(t *testing.T) {
				cfg := p.cfg
				v.mod(&cfg)
				var out bytes.Buffer
				s, err := New(prog, cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				stalledWithWork := false
				var watchStalls func()
				if v.name == "faults" {
					watchStalls = func() {
						for m, cm := range s.modules {
							if len(cm.serviceQ) > cm.head && s.Sched.Now() < cm.stalledUntil && s.cacheActive.Has(m) {
								stalledWithWork = true
							}
						}
					}
				}
				stepRun(t, s, watchStalls)
				// The same configuration under plain Run: stepping must not
				// have changed what executes.
				var refOut bytes.Buffer
				ref, err := New(prog, cfg, &refOut)
				if err != nil {
					t.Fatal(err)
				}
				if res, err := ref.Run(10_000_000); err != nil || !res.Halted {
					t.Fatalf("reference run: %+v, %v", res, err)
				}
				if !s.halted || out.String() != want || refOut.String() != want {
					t.Fatalf("halted=%v printed %q (Run printed %q), want %q", s.halted, out.String(), refOut.String(), want)
				}
				if s.Sched.Executed != ref.Sched.Executed {
					t.Fatalf("stepped run executed %d events, Run %d", s.Sched.Executed, ref.Sched.Executed)
				}
				st := s.Stats
				switch v.name {
				case "optimistic":
					// A rollback truncates sendQ under a set bit.
					if s.Rollbacks() == 0 {
						t.Error("no rollback occurred; the stale-membership path went unexercised")
					}
				case "faults":
					if st.ICNDupFaults == 0 || st.ICNDropFaults == 0 || st.CacheStallFaults == 0 {
						t.Errorf("fault plan not applied: dup=%d drop=%d stall=%d", st.ICNDupFaults, st.ICNDropFaults, st.CacheStallFaults)
					}
					if !stalledWithWork {
						t.Error("no stalled module ever held requests; the stall-keeps-membership path went unexercised")
					}
				}
			})
		}
	}
}

// TestActiveSetCheckpointResume chops the run at periodic checkpoints: a
// system rebuilt by RestoreState starts with every queue empty, so it has no
// membership to rebuild — asserted — and must run on under the invariant.
func TestActiveSetCheckpointResume(t *testing.T) {
	for _, p := range setPresets() {
		t.Run(p.name, func(t *testing.T) {
			prog, want := compileKernel(t, p.cfg.TCUs())
			var out strings.Builder
			var st *checkpoint.State
			segments := 0
			for {
				var seg bytes.Buffer
				s, err := New(prog, p.cfg, &seg)
				if err != nil {
					t.Fatal(err)
				}
				if st != nil {
					if err := s.RestoreState(st); err != nil {
						t.Fatal(err)
					}
					for _, set := range []activeSet{s.icn.ports, s.icn.arriving, s.cacheActive} {
						if m := members(set); len(m) != 0 {
							t.Fatalf("restored system has members %v", m)
						}
					}
					for _, cm := range s.modules {
						if len(cm.serviceQ) != 0 {
							t.Fatal("restored system has a non-empty service queue")
						}
					}
				}
				s.CheckpointEvery(150)
				stepRun(t, s, nil)
				out.WriteString(seg.String())
				segments++
				if s.halted {
					break
				}
				if !s.checkpointed || segments > 10_000 {
					t.Fatalf("segment %d stopped without halt or checkpoint", segments)
				}
				st = s.Capture()
			}
			if segments < 3 {
				t.Fatalf("only %d segments; the checkpoint cadence never fired", segments)
			}
			if out.String() != want {
				t.Fatalf("printed %q over %d segments, want %q", out.String(), segments, want)
			}
		})
	}
}

// TestActiveSetReentry is the hang in miniature: the ICN drains the master
// port and drops it from the set, and a package appended to that port in the
// same tick must put it back and be injected on the next edge.
func TestActiveSetReentry(t *testing.T) {
	s, _ := buildSys(t, busyLoop, config.FPGA64())
	port := len(s.clusters)
	in := &s.Prog.Text[0]
	s.master.pendingNB = 2
	send := func() {
		if !s.master.send(PkgStoreNB, in, 64, 1, s.Sched.Now()) {
			t.Fatal("master send refused")
		}
	}
	send()
	if !s.icn.ports.Has(port) {
		t.Fatal("Master.send did not enter the port")
	}
	s.Sched.Step() // the ICN edge: injects, finds the queue empty, drops the port
	if s.Stats.ICNTraversals != 1 || s.icn.ports.Has(port) || len(s.master.sendQ) != 0 {
		t.Fatalf("after the first edge: traversals=%d member=%v queued=%d",
			s.Stats.ICNTraversals, s.icn.ports.Has(port), len(s.master.sendQ))
	}
	first := s.Sched.Now()
	send() // same tick as the clear
	checkActiveSets(t, s)
	for s.Stats.ICNTraversals < 2 && s.Sched.Step() {
	}
	if s.Stats.ICNTraversals != 2 {
		t.Fatal("the package appended after the clear was never injected")
	}
	if want := first + s.Cfg.ICNPeriod; s.Sched.Now() != want {
		t.Fatalf("second injection at t=%d, want the next ICN edge t=%d", s.Sched.Now(), want)
	}
	for s.master.pendingNB > 0 && s.Sched.Step() {
	}
	if s.master.pendingNB != 0 || len(s.master.pkgFree) != 2 {
		t.Fatalf("pendingNB=%d, %d packages back on the master freelist (want 0, 2)", s.master.pendingNB, len(s.master.pkgFree))
	}
}
