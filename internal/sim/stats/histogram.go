package stats

import (
	"fmt"
	"io"
	"math/bits"
)

// Histogram is a fixed-shape power-of-two histogram for latency and depth
// observations. Bucket 0 counts zero values; bucket i>0 counts values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). The fixed layout keeps
// observation O(1), allocation-free and — because it is plain counting —
// bit-deterministic across host worker counts.
type Histogram struct {
	Buckets [65]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile returns an upper bound of the p-th percentile (p in [0,100]):
// the upper edge of the bucket the percentile falls into.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(p / 100 * float64(h.Count))
	if want == 0 {
		want = 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen >= want {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.Max
}

// Report writes the summary line, then the non-empty buckets on one line
// each. Output is stable and byte-deterministic.
func (h *HistSnapshot) Report(w io.Writer, label string) {
	mean := 0.0
	if h.Count > 0 {
		mean = float64(h.Sum) / float64(h.Count)
	}
	fmt.Fprintf(w, "%s: count=%d mean=%.1f p50<=%d p99<=%d max=%d\n",
		label, h.Count, mean, h.P50, h.P99, h.Max)
	for _, b := range h.Buckets {
		fmt.Fprintf(w, "  [%d..%d]: %d\n", b[0], b[1], b[2])
	}
}
