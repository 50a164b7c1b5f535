package xmtgo_test

import (
	"testing"

	"xmtgo"
)

// TestOptimisticRollbackOccurs pins down that the optimistic coverage of
// the window gates (matrix_test.go) is not vacuous: on a memory-bound
// workload the free-running clusters must actually overrun arriving cache
// responses and roll back, and the run must still match the windowed
// engine cycle-for-cycle.
func TestOptimisticRollbackOccurs(t *testing.T) {
	c := mcase{prog: "tableI-Parallel, memory intensive", cfg: preset(""), budget: 2_000_000}
	w := halted(t, runCase(t, c.engine(0, xmtgo.EngineWindowed)))
	o := halted(t, runCase(t, c.engine(0, xmtgo.EngineOptimistic)))
	if n := w.sys.Rollbacks(); n != 0 {
		t.Errorf("windowed engine reported %d rollbacks; conservative windows never roll back", n)
	}
	if o.sys.Rollbacks() == 0 {
		t.Error("optimistic run reported zero rollbacks; the rollback path went unexercised")
	}
	same(t, o, w, except("windows", "executed")...)
}
