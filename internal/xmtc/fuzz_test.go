package xmtc_test

import (
	"os"
	"path/filepath"
	"testing"

	"xmtgo/internal/xmtc"
	"xmtgo/internal/xmtc/prepass"
)

// FuzzParseXMTC drives the XMTC parser, the semantic checker when parsing
// succeeds, and the pre-pass — with default options and with clustering by
// 3 — on every file the checker accepts, with arbitrary inputs: each must
// return an error or succeed, never panic or hang, whatever the input. The
// pre-pass is where the tree rewriters (outlining, serialization,
// clustering) run. Seeds are the bundled example programs. Run at length
// with
//
//	go test -fuzz FuzzParseXMTC ./internal/xmtc
//
// scripts/check.sh runs a short smoke of this target.
func FuzzParseXMTC(f *testing.F) {
	seeds, _ := filepath.Glob("../../examples/xmtc/*.c")
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("int main() { return 0; }")
	f.Add("int A[8]; int main() { spawn(0, 7) { A[$] = $; } return A[3]; }")
	f.Add("int x; int main() { int inc = 1; spawn(0,3) { ps(inc, x); } return x; }")

	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []prepass.Options{{}, {ClusterFactor: 3}} {
			file, err := xmtc.Parse("fuzz.c", src)
			if err != nil {
				return
			}
			if _, err := xmtc.Check(file); err != nil {
				return
			}
			_ = prepass.Run(file, opts)
		}
	})
}
