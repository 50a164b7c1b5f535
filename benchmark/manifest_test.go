package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The tests run from the checkout root, like the benchmark itself: the
// manifest, the blessed digests and the output directory are all named
// relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestManifest guards against a manifest the driver would refuse: strict
// keys, legal names and units, every limit of the contract, and one
// implementation per declared workload.
func TestManifest(t *testing.T) {
	man, err := LoadManifest(ManifestFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, the benchmark implements %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: manifest says %q, the benchmark implements %q", i, w.Name, workloads[i].name)
		}
	}
	for _, p := range man.Paths {
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the checkout", p)
		}
	}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that each run is correct, emits exactly the metric names the
// manifest declares, and leaves a loadable Chrome trace.
func TestSmoke(t *testing.T) {
	man, err := LoadManifest(ManifestFile)
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer []string
	for _, e := range man.EndToEnd {
		endToEnd = append(endToEnd, e.Name)
	}
	for _, l := range man.PerLayer {
		perLayer = append(perLayer, l.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)

	// A declared per-layer metric that no workload ever writes would pass
	// the name check below on report's zero-filling alone.
	written := map[string]bool{}
	for _, w := range man.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := Run(man, RunOptions{Workload: w.Name, Seed: 1, Seconds: 0.2, Trace: traced, Smoke: true})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s (trace %v): %d metrics, manifest declares %d", w.Name, traced, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s (trace %v): metric %q, manifest declares %q", w.Name, traced, got[i], want[i])
				}
			}
			for name := range res.measured {
				written[name] = true
			}
		}
		raw, err := os.ReadFile(filepath.Join(OutDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s: trace does not load: %v", w.Name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace has no events", w.Name)
		}
	}
	for _, name := range perLayer {
		if !written[name] {
			t.Errorf("per-layer metric %q is declared but no workload measures it", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), from which the driver takes spreads.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 7, 3, 9, 4, 2, 8, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 3", q1, q3)
	}
}
