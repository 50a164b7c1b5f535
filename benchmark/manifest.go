// Package bench is the repository's benchmark: six workloads that each
// stress a different layer of the toolchain, five gated end-to-end metrics
// reported on every workload, and a per-layer ledger measured from outside
// by timing calls into each layer's public functions (README.md).
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// ManifestFile is the contract file at the checkout root. It is the single
// source of metric names and units: a run reports exactly the metrics it
// declares and fails when the code produces a name it does not.
const ManifestFile = "BENCHMARK.json"

// Manifest mirrors BENCHMARK.json key for key.
type Manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []LayerDef    `json:"per_layer"`
}

// WorkloadDef names one workload and the reason it was chosen.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef is one gated end-to-end metric. Bound is the share of the
// parent's median by which it may worsen.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LayerDef is one ungated per-layer metric.
type LayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// LoadManifest reads and validates the manifest strictly: unknown keys and
// every limit of the driver's contract are errors, so a file the driver
// would refuse never gets as far as a run.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes exceeds 64 KiB", path, len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings (want 1..32)", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 {
			return fmt.Errorf("command string longer than 200 characters")
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths (want 1..16)", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) {
			return fmt.Errorf("path %q outside the allowed characters", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads (want 2..8)", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics (want 1..16)", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics (want 1..128)", n)
	}

	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q is not a legal benchmark name", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	direction := func(n, unit, better string) error {
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("metric %s: unit %q is not legal", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("metric %s: better is %q (want lower or higher)", n, better)
		}
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		if err := name(e.Name); err != nil {
			return err
		}
		if err := direction(e.Name, e.Unit, e.Better); err != nil {
			return err
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, l := range m.PerLayer {
		if err := name(l.Name); err != nil {
			return err
		}
		if err := direction(l.Name, l.Unit, l.Better); err != nil {
			return err
		}
	}
	return nil
}

// Value is one reported measurement.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics collects measurements by name while a workload runs.
type Metrics map[string]float64

// report projects the collected values onto the manifest's declared names:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. A per-layer metric the workload never set is reported as 0 —
// the workload bypasses that layer — but a name the manifest does not
// declare, or a missing end-to-end value, is a bug in the benchmark.
func (m *Manifest) report(got Metrics, traced bool) (map[string]Value, error) {
	declared := map[string]string{}
	for _, e := range m.EndToEnd {
		declared[e.Name] = e.Unit
	}
	for _, l := range m.PerLayer {
		declared[l.Name] = l.Unit
	}
	for n := range got {
		if _, ok := declared[n]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared in %s", n, ManifestFile)
		}
	}
	out := map[string]Value{}
	if traced {
		for _, l := range m.PerLayer {
			out[l.Name] = Value{got[l.Name], l.Unit}
		}
		return out, nil
	}
	for _, e := range m.EndToEnd {
		v, ok := got[e.Name]
		if !ok || v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %q has no positive value (%v)", e.Name, v)
		}
		out[e.Name] = Value{v, e.Unit}
	}
	return out, nil
}
