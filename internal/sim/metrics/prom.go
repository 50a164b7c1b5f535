package metrics

import (
	"fmt"
	"io"
	"sort"

	"xmtgo/internal/sim/engine"
)

// RenderProm writes the bundle in Prometheus text exposition format
// (version 0.0.4). It is a pure function of the bundle — families appear in
// a fixed order and label values are emitted sorted — so the output is
// byte-deterministic and can be golden-tested.
func RenderProm(w io.Writer, p *Published) {
	g := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	c := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	st := &p.Status
	g("xmt_cycle", "Current cluster cycle (includes checkpoint-resume offset).", st.Cycle)
	g("xmt_ticks", "Current engine time in ticks.", st.Ticks)
	g("xmt_done", "1 when the run has finished.", b2i(st.Done))
	g("xmt_tcus_alive", "TCUs currently live (not decommissioned).", st.AliveTCUs)
	c("xmt_tcus_decommissioned_total", "TCUs decommissioned by fault handling.", st.DecommissionedTCUs)
	if st.WatchdogCycles > 0 {
		g("xmt_watchdog_slack_cycles", "Estimated cycles of watchdog budget remaining.", st.WatchdogSlack)
	}
	c("xmt_trace_dropped_total", "Sim trace-ring events evicted before draining.", st.TraceDropped)

	cs := p.Counters
	if cs != nil {
		name := "xmt_instructions_total"
		fmt.Fprintf(w, "# HELP %s Committed instructions by processor kind.\n# TYPE %s counter\n", name, name)
		fmt.Fprintf(w, "%s{kind=\"master\"} %d\n", name, cs.Instructions.Master)
		fmt.Fprintf(w, "%s{kind=\"tcu\"} %d\n", name, cs.Instructions.TCU)

		name = "xmt_stall_cycles_total"
		fmt.Fprintf(w, "# HELP %s Aggregate TCU stall cycles by cause.\n# TYPE %s counter\n", name, name)
		fmt.Fprintf(w, "%s{cause=\"mem\"} %d\n", name, cs.Stalls.Mem)
		fmt.Fprintf(w, "%s{cause=\"fpu_mdu\"} %d\n", name, cs.Stalls.FPUMDU)
		fmt.Fprintf(w, "%s{cause=\"ps\"} %d\n", name, cs.Stalls.PS)
		fmt.Fprintf(w, "%s{cause=\"icn_send\"} %d\n", name, cs.Stalls.ICNSend)

		c("xmt_cache_hits_total", "Shared-cache hits.", cs.Memory.CacheHits)
		c("xmt_cache_misses_total", "Shared-cache misses.", cs.Memory.CacheMisses)
		c("xmt_cache_queue_full_total", "Cache request-queue-full events.", cs.Memory.QueueFull)
		c("xmt_dram_accesses_total", "DRAM accesses.", cs.Memory.DRAMTotal)
		c("xmt_icn_traversals_total", "Interconnect packet traversals.", cs.Memory.ICNTraversals)
		c("xmt_icn_hops_total", "Interconnect hop count.", cs.Memory.ICNHops)
		c("xmt_ps_ops_total", "Prefix-sum operations.", cs.PrefixSum.Ops)
		c("xmt_spawns_total", "Spawn instructions executed.", cs.SpawnJoin.Spawns)
		c("xmt_virtual_threads_total", "Virtual threads launched.", cs.SpawnJoin.VirtualThreads)
		c("xmt_redispatches_total", "Threads re-dispatched after TCU failure.", cs.Faults.Redispatches)

		name = "xmt_faults_injected_total"
		fmt.Fprintf(w, "# HELP %s Faults injected by kind.\n# TYPE %s counter\n", name, name)
		kinds := map[string]uint64{
			"mem": cs.Faults.Mem, "reg": cs.Faults.Reg,
			"icn_delay": cs.Faults.ICNDelay, "icn_dup": cs.Faults.ICNDup,
			"icn_drop": cs.Faults.ICNDrop, "cache_stall": cs.Faults.CacheStall,
			"tcu_fail": cs.Faults.TCUFail, "cluster_fail": cs.Faults.ClusterFail,
		}
		keys := make([]string, 0, len(kinds))
		for k := range kinds {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{kind=%q} %d\n", name, k, kinds[k])
		}
	}

	if ws := p.Windows; ws != nil {
		name := "xmt_engine_windows_total"
		fmt.Fprintf(w, "# HELP %s Cluster-domain scheduler events by cycles covered (power-of-two buckets, labelled by lower bound) and by what ended the window.\n# TYPE %s counter\n", name, name)
		for b := range ws {
			for e, n := range ws[b] {
				if n != 0 {
					fmt.Fprintf(w, "%s{span_ge=\"%d\",end=%q} %d\n", name, 1<<b, engine.WindowEnd(e), n)
				}
			}
		}
	}

	s := p.Sample
	if s != nil {
		g("xmt_interval_ipc", "Instructions per cluster cycle in the last sample window.", fl(s.IPC))
		g("xmt_interval_cache_hit_rate", "Cache hit rate in the last sample window.", fl(s.CacheHitRate))
		g("xmt_interval_window_cycles", "Width of the last sample window in cluster cycles.", s.WindowCycles)
		if s.Power != nil {
			g("xmt_power_watts", "Mean power over the last sample window.", fl(s.Power.Watts))
			g("xmt_energy_joules", "Energy consumed in the last sample window.", fl(s.Power.EnergyJ))
			g("xmt_temp_peak_celsius", "Peak thermal-grid cell temperature.", fl(s.Power.PeakTempC))
			g("xmt_temp_mean_celsius", "Mean thermal-grid cell temperature.", fl(s.Power.MeanTempC))
			g("xmt_thermal_throttled", "1 while the DVFS controller is throttling.", b2i(s.Power.Throttled))
		}
	}

	if dm := st.Daemon; dm != nil {
		g("xmt_daemon_queue_depth", "Jobs in the daemon's ready queue.", dm.QueueDepth)
		g("xmt_daemon_running", "Jobs currently simulating.", dm.Running)
		g("xmt_daemon_workers", "Configured worker count.", dm.Workers)
		g("xmt_daemon_draining", "1 while a graceful drain is in progress.", b2i(dm.Draining))
		c("xmt_daemon_preemptions_total", "Checkpoint-boundary preemptions.", dm.Preemptions)
		c("xmt_daemon_retries_total", "Attempt retries after timeout or watchdog trip.", dm.Retries)
		c("xmt_daemon_recoveries_total", "Jobs recovered by journal replay.", dm.Recoveries)
		c("xmt_daemon_completed_total", "Jobs finished successfully.", dm.Completed)
		c("xmt_daemon_failed_total", "Jobs that reached a failure state.", dm.Failed)
		c("xmt_daemon_canceled_total", "Jobs canceled by clients.", dm.Canceled)
		c("xmt_daemon_trace_spans_dropped_total", "Lifecycle spans evicted from the daemon trace ring.", dm.TraceDropped)
		c("xmt_daemon_log_dropped_total", "Structured log records evicted from the /logs ring.", dm.LogDropped)
		if len(dm.Tenants) > 0 {
			name := "xmt_daemon_tenant_jobs"
			fmt.Fprintf(w, "# HELP %s Per-tenant queue and worker occupancy.\n# TYPE %s gauge\n", name, name)
			tenants := make([]string, 0, len(dm.Tenants))
			for t := range dm.Tenants {
				tenants = append(tenants, t)
			}
			sort.Strings(tenants)
			for _, t := range tenants {
				occ := dm.Tenants[t]
				fmt.Fprintf(w, "%s{tenant=%q,state=\"queued\"} %d\n", name, t, occ.Queued)
				fmt.Fprintf(w, "%s{tenant=%q,state=\"running\"} %d\n", name, t, occ.Running)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fl renders a float like strconv.FormatFloat(v, 'g', -1, 64), matching the
// JSON encoding so goldens agree across surfaces.
func fl(v float64) string { return fmt.Sprintf("%g", v) }
