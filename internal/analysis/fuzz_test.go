package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"xmtgo/internal/analysis"
)

// FuzzAnalyze drives the full analyzer — parser, sema, the CFG/dataflow
// engine and every registered pass — over mutated XMTC sources. The
// contract is total: no input may panic it or hang it (the dataflow
// solvers iterate to a fixpoint over monotone bitsets, so termination is
// structural, but the fuzzer guards the builder's many traversal paths).
func FuzzAnalyze(f *testing.F) {
	seeds, _ := filepath.Glob("../../examples/xmtc/*.c")
	for _, p := range seeds {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("int main() { spawn(0, 7) { return 1; } }")
	f.Add("int x; int main() { int y; y = y; while (1) { } }")
	for _, src := range readoutSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			return // linear in source size; keep the corpus fast
		}
		analysis.Analyze("fuzz.c", src, nil)
	})
}
