package bench

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer is the benchmark's own in-memory span recorder. Spans are recorded
// from the benchmark's files around calls into each layer's public
// functions — one root span per operation, one child per call — kept in
// memory and written as Chrome trace-event JSON when the run ends. A nil
// tracer records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
	lanes []bool // lane i is occupied by a live root span
	// opBase is added to the operation ids of the stretch being measured, so
	// that they stay unique over the run. Each stretch is a whole number of
	// passes over its inputs, so id % inputs still names the input.
	opBase int
}

type spanRec struct {
	name       string
	op         int // operation id shared by every span of one operation
	parent     int // index of the causing span, -1 for a root
	lane       int // Chrome tid: overlapping operations get distinct lanes
	start, end time.Duration
	children   time.Duration
}

// span refers to one recorded span; the zero span (from a nil tracer) is
// inert.
type span struct {
	t   *tracer
	idx int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens an operation's root span. at is when the operation was due,
// which for the open-loop workload precedes the moment it was sent.
func (t *tracer) root(op int, name string, at time.Time) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	for lane < len(t.lanes) && t.lanes[lane] {
		lane++
	}
	if lane == len(t.lanes) {
		t.lanes = append(t.lanes, false)
	}
	t.lanes[lane] = true
	t.spans = append(t.spans, spanRec{name: name, op: t.opBase + op, parent: -1, lane: lane, start: at.Sub(t.epoch), end: -1})
	return span{t, len(t.spans) - 1}
}

// child opens a span caused by s.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	t := s.t
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.spans[s.idx]
	t.spans = append(t.spans, spanRec{name: name, op: p.op, parent: s.idx, lane: p.lane, start: now, end: -1})
	return span{t, len(t.spans) - 1}
}

// end closes the span and charges its duration to the parent's child time.
func (s span) end() {
	if s.t == nil {
		return
	}
	t := s.t
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.spans[s.idx]
	r.end = now
	if r.parent >= 0 {
		t.spans[r.parent].children += r.end - r.start
	} else {
		t.lanes[r.lane] = false
	}
}

// each calls f with the operation id and duration of every closed span
// called name.
func (t *tracer) each(name string, f func(op int, ms float64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if r := &t.spans[i]; r.name == name && r.end >= 0 {
			f(r.op, ms(r.end-r.start))
		}
	}
}

// durationsMs returns the duration of every closed span called name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	t.each(name, func(_ int, d float64) { out = append(out, d) })
	return out
}

// perInputMs is the mean over a round-robin's inputs of each input's quiet
// span duration: the per-operation cost of a layer with every input weighed
// equally. Operation i ran input i % inputs.
func (t *tracer) perInputMs(name string, inputs int) float64 {
	by := make([][]float64, inputs)
	t.each(name, func(op int, d float64) { by[op%inputs] = append(by[op%inputs], d) })
	return perInput(by)
}

// perInput is the mean over the inputs of each input's quiet value.
func perInput(by [][]float64) float64 {
	var sum float64
	for _, d := range by {
		sum += quiet(d)
	}
	return sum / float64(len(by))
}

// quietMs is the quiet duration of the spans called name (0 when none).
func (t *tracer) quietMs(name string) float64 { return quiet(t.durationsMs(name)) }

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). Each event's args carry the
// operation id, the causing span and the span's self time.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i := range t.spans {
		r := &t.spans[i]
		if r.end < 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":\"xmtbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d,\"self_us\":%.3f}}",
			r.name, r.lane, us(r.start), us(r.end-r.start), r.op, i, r.parent, us(r.end-r.start-r.children))
	}
	t.mu.Unlock()
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between order statistics; 0 for an empty slice. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quiet is how a run condenses repeated timings of one thing into one
// number: the 10th percentile. Everything that disturbs a timing here is
// one-sided — the shared host's other tenants and the interpreter's unlucky
// stack offsets (README.md) only ever add time — and arrives in bursts, so
// the median of a run lands in either mode while the quiet end of the
// distribution stays put. The minimum would be the textbook estimator under
// one-sided noise; the 10th percentile is that, made safe against a single
// fluke.
func quiet(vals []float64) float64 { return quantile(vals, 0.10) }

// quietRate is quiet for rates, where the undisturbed end is the high one.
func quietRate(vals []float64) float64 { return quantile(vals, 0.90) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
