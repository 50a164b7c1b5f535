// Command xmtd is the simulation-as-a-service daemon: a long-running server
// that accepts simulation jobs over a unix or TCP socket (the xmt-jobs/v1
// line-JSON protocol, docs/XMTD.md), runs them on a worker pool with
// priorities, per-tenant quotas, checkpoint-backed preemption and bounded
// retry-with-backoff, and journals every state change durably — kill -9 the
// daemon at any instant and the next xmtd on the same -data directory
// resumes every unfinished job from its last checkpoint.
//
// Usage:
//
//	xmtd -listen unix:/tmp/xmtd.sock -data /var/lib/xmtd [flags]
//
// Examples:
//
//	xmtd -listen 127.0.0.1:9901 -data d/ -workers 2 -checkpoint-every 50000
//	xmtd -listen unix:/tmp/x.sock -data d/ -budget 10000000 -retries 2
//	xmtd -listen :9901 -data d/ -serve :8080 -max-queued 64
//	xmtd -listen :9901 -data d/ -serve :8080 -pprof -trace trace.json
//
// Observability (docs/OBSERVABILITY.md): progress lines are structured JSON
// (-log-level sets the floor), -serve exposes /metrics latency histograms
// and /logs, -trace writes the job-lifecycle trace (open in Perfetto or
// chrome://tracing) on exit, and -pprof adds /debug/pprof/.
//
// SIGTERM or SIGINT drains gracefully: admission stops, running jobs
// checkpoint at their next quiescent boundary, the journal gets its
// clean-shutdown marker, and xmtd exits 0 with zero lost jobs. A second
// signal forces immediate exit with status 130 (internal/sigctl).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"xmtgo/internal/config"
	"xmtgo/internal/daemon"
	"xmtgo/internal/obs"
	"xmtgo/internal/sigctl"
	"xmtgo/internal/sim/metrics"
)

// exitCode carries run's exit status out of fatal; run recovers it so tests
// can drive the daemon in-process.
type exitCode int

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) (code int) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	fs := flag.NewFlagSet("xmtd", flag.ExitOnError)
	var sets []string
	var (
		listenAddr = fs.String("listen", "unix:/tmp/xmtd.sock", "job API address: unix:/path or [tcp:]host:port")
		dataDir    = fs.String("data", "xmtd-data", "durable state directory (journal + checkpoint files)")
		cfgName    = fs.String("config", "fpga64", "machine preset: fpga64 or chip1024")
		workers    = fs.Int("workers", 1, "concurrent simulation workers")
		ckptEvery  = fs.Int64("checkpoint-every", 100000, "checkpoint running jobs every N cluster cycles (also bounds preemption latency)")
		budget     = fs.Int64("budget", 0, "default first-attempt cycle budget per job (0 = unlimited)")
		retries    = fs.Int("retries", 2, "retry attempts after a timeout or watchdog trip")
		backoff    = fs.Float64("backoff", 2, "budget and watchdog multiplier between attempts")
		maxQueued  = fs.Int("max-queued", 256, "global ready-queue bound (beyond it: queue_full)")

		tenantQueued  = fs.Int("tenant-max-queued", 0, "per-tenant queued-job quota (0 = unlimited)")
		tenantRunning = fs.Int("tenant-max-running", 0, "per-tenant running-job quota (0 = unlimited)")
		tenantBudget  = fs.Int64("tenant-max-budget", 0, "per-tenant cap on requested budget_cycles (0 = unlimited)")

		serveAddr    = fs.String("serve", "", "serve live metrics on this address (/metrics /status /stream?job=ID /logs)")
		sampleCycles = fs.Int64("sample-cycles", -1, "interval-sampler period for -serve (-1 = preset's sample_cycles)")
		quiet        = fs.Bool("q", false, "suppress progress lines")

		logLevel  = fs.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
		traceOut  = fs.String("trace", "", "write the lifecycle trace (Chrome trace-event JSON) to this file on exit")
		pprofFlag = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -serve address")
	)
	fs.Func("set", "override one configuration key=value (repeatable)", func(kv string) error {
		sets = append(sets, kv)
		return nil
	})
	fs.Parse(args)

	cfg, err := config.Resolve(*cfgName, "", sets)
	if err != nil {
		fatal(err)
	}
	if *sampleCycles >= 0 {
		cfg.SampleCycles = *sampleCycles
	}

	opts := daemon.Options{
		Config:          cfg,
		DataDir:         *dataDir,
		Workers:         *workers,
		BudgetCycles:    *budget,
		CheckpointEvery: *ckptEvery,
		Retries:         *retries,
		Backoff:         *backoff,
		MaxQueued:       *maxQueued,

		TenantMaxQueued:  *tenantQueued,
		TenantMaxRunning: *tenantRunning,
		TenantMaxBudget:  *tenantBudget,

		LogLevel: obs.ParseLevel(*logLevel),
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	msrv, err := metrics.Serve(metrics.NewServer, *serveAddr, *pprofFlag, os.Stderr)
	if err != nil {
		fatal(err)
	}
	opts.Monitor = msrv

	d, err := daemon.New(opts)
	if err != nil {
		fatal(err)
	}

	network, address := daemon.ParseAddr(*listenAddr)
	if network == "unix" {
		// A stale socket from a crashed daemon would block the bind; the
		// journal, not the socket, is the source of truth.
		os.Remove(address)
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		fatal(err)
	}

	// First signal: graceful drain. sigctl waits for the second (forced
	// exit) only once this returns, so the drain runs on its own goroutine.
	stopSig := sigctl.Notify("xmtd", func() {
		go func() {
			if err := d.Drain(); err != nil {
				fmt.Fprintln(os.Stderr, "xmtd: drain:", err)
			}
			ln.Close()
		}()
	})
	defer stopSig()
	fmt.Fprintf(os.Stderr, "xmtd listening on %s:%s (data %s)\n", network, ln.Addr().String(), *dataDir)

	if err := d.Serve(ln); err != nil {
		fatal(err)
	}
	// Serve returned because the listener closed: drain (signal or API op)
	// already checkpointed running jobs and sealed the journal.
	if msrv != nil {
		msrv.Close()
	}
	if *traceOut != "" {
		data, err := d.TraceJSON()
		if err == nil {
			err = os.WriteFile(*traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmtd: trace:", err)
		} else {
			fmt.Fprintf(os.Stderr, "xmtd: trace written to %s\n", *traceOut)
		}
	}
	if network == "unix" {
		os.Remove(address)
	}
	fmt.Fprintln(os.Stderr, "xmtd: exit")
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmtd:", err)
	panic(exitCode(1))
}
