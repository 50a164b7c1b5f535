package daemon

import (
	"testing"
	"time"

	"xmtgo/internal/config"
	"xmtgo/internal/obs"
)

// BenchmarkDaemon is a quick closed-loop reading of the daemon's service
// quality; the recorded trajectory is the benchmark's open-loop daemon-open
// workload (benchmark/README.md). It reports:
//
//   - jobs/sec: short jobs pushed through the full pipeline — fsync'd
//     journal append, admission, queue, worker, result — per second.
//   - ttfs_ns: time-to-first-sample, from Submit until /status first shows
//     checkpointed progress for a longer job (how quickly a client watching
//     a fresh job sees it move).
func BenchmarkDaemon(b *testing.B) {
	cfg, err := config.Preset("fpga64")
	if err != nil {
		b.Fatal(err)
	}
	if err := cfg.Set("mem_bytes=1048576"); err != nil {
		b.Fatal(err)
	}
	d, err := New(Options{
		Config:          cfg,
		DataDir:         b.TempDir(),
		Workers:         2,
		CheckpointEvery: 50_000,
		Retries:         1,
		MaxQueued:       1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	// Time-to-first-sample: a ~300k-cycle job checkpoints several times;
	// measure submit -> first status carrying progress.
	t0 := time.Now()
	st, aerr := d.Submit(&JobSpec{Name: "ttfs", Kind: "asm", Source: loopSrc(100_000)})
	if aerr != nil {
		b.Fatal(aerr)
	}
	for {
		cur, aerr := d.Status(st.ID)
		if aerr != nil {
			b.Fatal(aerr)
		}
		if cur.Cycles > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ttfs := time.Since(t0)
	if _, aerr := d.Wait(st.ID, time.Minute); aerr != nil {
		b.Fatal(aerr)
	}

	spec := &JobSpec{Name: "bench", Kind: "asm", Source: loopSrc(2000)}
	b.ResetTimer()
	start := time.Now()
	ids := make([]string, 0, b.N)
	for i := 0; i < b.N; i++ {
		st, aerr := d.Submit(spec)
		if aerr != nil {
			b.Fatal(aerr)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, aerr := d.Wait(id, time.Minute)
		if aerr != nil {
			b.Fatal(aerr)
		}
		if st.State != StateDone {
			b.Fatalf("job %s ended %s: %+v", id, st.State, st.Result)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/sec")
	b.ReportMetric(float64(ttfs.Nanoseconds()), "ttfs_ns")

	// Distribution-aware service quality from the daemon's own latency
	// histograms (internal/obs): single-number averages hide tail latency,
	// so the bench gate tracks p50/p99 of queue wait and time-to-first-
	// sample across every job this run pushed through.
	sums := d.Hists().Summaries()
	b.ReportMetric(float64(sums[obs.HistQueueWait].P50Ns), "queue_wait_p50_ns")
	b.ReportMetric(float64(sums[obs.HistQueueWait].P99Ns), "queue_wait_p99_ns")
	b.ReportMetric(float64(sums[obs.HistTTFS].P50Ns), "ttfs_p50_ns")
	b.ReportMetric(float64(sums[obs.HistTTFS].P99Ns), "ttfs_p99_ns")
}
