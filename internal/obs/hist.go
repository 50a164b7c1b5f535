package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync"

	"xmtgo/internal/sim/stats"
)

// The service-latency histogram keys (docs/OBSERVABILITY.md). Each is a
// host-nanosecond distribution; the fixed set keeps /metrics output and the
// /status daemon block byte-stable in shape.
const (
	HistQueueWait      = "queue_wait"      // submit accepted -> worker picks the job up
	HistCompile        = "compile"         // source -> loaded program, every successful submit (program-cache hits included)
	HistTTFS           = "ttfs"            // worker start -> first checkpoint/sample
	HistCkptWrite      = "ckpt_write"      // checkpoint serialize+write+rename
	HistJournalFsync   = "journal_fsync"   // one journal append incl. fsync
	HistPreemptRequeue = "preempt_requeue" // preempt requested -> victim back in queue
	HistRetryBackoff   = "retry_backoff"   // retry decided -> next attempt starts
)

// HistKeys lists every histogram key in rendering order.
var HistKeys = []string{
	HistQueueWait, HistCompile, HistTTFS, HistCkptWrite,
	HistJournalFsync, HistPreemptRequeue, HistRetryBackoff,
}

// HistSummary is the /status-facing digest of one latency histogram.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// Hists is the fixed set of service-latency histograms, safe for concurrent
// observation from the daemon's worker goroutines.
type Hists struct {
	mu sync.Mutex
	h  map[string]*stats.Histogram
}

// NewHists creates the seven empty histograms.
func NewHists() *Hists {
	m := make(map[string]*stats.Histogram, len(HistKeys))
	for _, k := range HistKeys {
		m[k] = &stats.Histogram{}
	}
	return &Hists{h: m}
}

// Observe records one nanosecond latency under key (unknown keys are
// ignored; negative durations clamp to zero so clock skew cannot corrupt
// the power-of-two layout).
func (h *Hists) Observe(key string, ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.mu.Lock()
	if hist, ok := h.h[key]; ok {
		hist.Observe(uint64(ns))
	}
	h.mu.Unlock()
}

// Get returns a copy of one histogram (zero value for unknown keys).
func (h *Hists) Get(key string) stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	if hist, ok := h.h[key]; ok {
		return *hist
	}
	return stats.Histogram{}
}

// Summaries digests every histogram for the /status daemon block.
func (h *Hists) Summaries() map[string]HistSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]HistSummary, len(h.h))
	for k, hist := range h.h {
		out[k] = HistSummary{
			Count:  hist.Count,
			MeanNs: hist.Mean(),
			P50Ns:  hist.Percentile(50),
			P99Ns:  hist.Percentile(99),
			MaxNs:  hist.Max,
		}
	}
	return out
}

// RenderProm writes every histogram as Prometheus cumulative
// _bucket/_sum/_count series named <prefix><key>_ns. Bucket upper edges are
// the power-of-two layout's: le="0" for the zero bucket, then le="2^i-1" up
// to the bucket holding the observed max, then le="+Inf". Output is a pure
// function of the observed counts.
func (h *Hists) RenderProm(w io.Writer, prefix string) {
	h.mu.Lock()
	snap := make(map[string]stats.Histogram, len(h.h))
	for k, hist := range h.h {
		snap[k] = *hist
	}
	h.mu.Unlock()

	for _, key := range HistKeys {
		hist := snap[key]
		name := prefix + key + "_ns"
		fmt.Fprintf(w, "# HELP %s %s latency in nanoseconds (host time).\n", name, key)
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		top := bits.Len64(hist.Max) // highest non-empty bucket index
		var cum uint64
		for i := 0; i <= top; i++ {
			cum += hist.Buckets[i]
			le := uint64(0)
			if i > 0 {
				le = uint64(1)<<uint(i) - 1
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, hist.Count)
		fmt.Fprintf(w, "%s_sum %d\n", name, hist.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, hist.Count)
	}
}
