// Package obs is the service-layer observability toolkit behind xmtd and
// xmtbatch (docs/OBSERVABILITY.md "Service-layer observability"):
//
//   - a job lifecycle Tracer: bounded ring of host-time spans (queued,
//     compile, run attempts, checkpoint writes, journal fsyncs, preempt,
//     resume, terminal events) exported as Chrome trace-event JSON with
//     pid = tenant and tid = job, so a daemon timeline loads in Perfetto
//     exactly like the simulator's cycle traces;
//   - Hists: named host-latency histograms reusing stats.Histogram's
//     power-of-two buckets, rendered as Prometheus _bucket/_sum/_count
//     series and summarized (count/mean/p50/p99/max) for /status;
//   - structured leveled logging: a log/slog JSON handler with
//     job/tenant/attempt/op correlation fields that tees every record into
//     a bounded in-memory LogRing served over HTTP (/logs) with level and
//     job filters.
//
// Where the simulator's observability (internal/sim/trace, internal/sim
// /metrics) measures simulated time deterministically, this package
// measures host time: queue waits, fsync latency, preemption turnaround —
// the service-quality signals of the "many users, one warm process"
// direction. Host-time values are inherently nondeterministic, so golden
// tests normalize or inject clocks; everything else (field order, label
// order, bucket layout) is byte-stable.
package obs
