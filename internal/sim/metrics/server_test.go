package metrics_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"xmtgo/internal/isa"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/metrics"
	"xmtgo/internal/sim/stats"
)

func testBundle(cycleN int64) *metrics.Published {
	col := stats.NewCollector(1, 0, 0)
	col.MasterInstrs = 100
	col.Cluster[0].ByUnit[isa.UnitALU] = 900
	return &metrics.Published{
		Status: metrics.Status{
			Cycle: cycleN, Ticks: cycleN * 8, Instrs: 1000, AliveTCUs: 64,
			WatchdogCycles: 5000, WatchdogSlack: 4000,
		},
		Counters: col.Snapshot(cycleN, cycleN*8),
		Sample: &metrics.Sample{
			Cycle: cycleN, Ticks: cycleN * 8, WindowCycles: 500,
			Instrs: 1000, MasterInstrs: 100, TCUInstrs: 900, IPC: 2,
			AliveTCUs: 64,
		},
	}
}

func startServer(t *testing.T) (*metrics.Server, string) {
	t.Helper()
	srv := metrics.NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	srv, addr := startServer(t)

	// Before any publish, endpoints respond but carry no data.
	body, _ := get(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "no sample published yet") {
		t.Errorf("empty /metrics = %q", body)
	}
	if body, _ = get(t, "http://"+addr+"/status"); strings.TrimSpace(body) != "{}" {
		t.Errorf("empty /status = %q", body)
	}

	bundle := testBundle(500)
	bundle.Windows = &engine.WindowStats{}
	bundle.Windows[0][engine.EndClosingEffect] = 7
	bundle.Windows[3][engine.EndSpanCap] = 2
	srv.Publish(bundle)

	body, ctype := get(t, "http://"+addr+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"xmt_cycle 500",
		`xmt_instructions_total{kind="tcu"} 900`,
		`xmt_stall_cycles_total{cause="mem"} 0`,
		"xmt_tcus_alive 64",
		"xmt_watchdog_slack_cycles 4000",
		"xmt_interval_ipc 2",
		`xmt_faults_injected_total{kind="tcu_fail"} 0`,
		`xmt_engine_windows_total{span_ge="1",end="closing_effect"} 7`,
		`xmt_engine_windows_total{span_ge="8",end="span_cap"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, ctype = get(t, "http://"+addr+"/status")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/status content type = %q", ctype)
	}
	var st metrics.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status: %v\n%s", err, body)
	}
	if st.Cycle != 500 || st.AliveTCUs != 64 || st.WatchdogSlack != 4000 {
		t.Errorf("/status = %+v", st)
	}
	if st.Daemon != nil {
		t.Errorf("unexpected daemon block: %+v", st.Daemon)
	}
}

// TestServerDaemonStatus: the daemon block reaches /status as soon as it is
// published, before any sample, and a later sample publish keeps it merged
// into /status and its families on /metrics.
func TestServerDaemonStatus(t *testing.T) {
	srv, addr := startServer(t)
	srv.PublishDaemon(metrics.DaemonStatus{QueueDepth: 2, Running: 1, Workers: 1, Completed: 3,
		Tenants: map[string]metrics.TenantOccupancy{"default": {Queued: 2, Running: 1}}})

	body, _ := get(t, "http://"+addr+"/status")
	var st metrics.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Daemon == nil || st.Daemon.QueueDepth != 2 || st.Daemon.Completed != 3 {
		t.Fatalf("/status daemon = %+v", st.Daemon)
	}

	srv.Publish(testBundle(900))
	body, _ = get(t, "http://"+addr+"/status")
	st = metrics.Status{}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 900 || st.Daemon == nil || st.Daemon.Completed != 3 {
		t.Fatalf("/status after a sample publish = %+v (daemon %+v)", st, st.Daemon)
	}
	body, _ = get(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		"xmt_cycle 900",
		"xmt_daemon_queue_depth 2",
		"xmt_daemon_completed_total 3",
		`xmt_daemon_tenant_jobs{tenant="default",state="queued"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerStream(t *testing.T) {
	srv, addr := startServer(t)
	srv.Publish(testBundle(100))

	resp, err := http.Get("http://" + addr + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/stream content type = %q", ct)
	}

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				lines <- data
			}
		}
		close(lines)
	}()

	readSample := func() metrics.Sample {
		t.Helper()
		select {
		case data := <-lines:
			var s metrics.Sample
			if err := json.Unmarshal([]byte(data), &s); err != nil {
				t.Fatalf("stream line %q: %v", data, err)
			}
			return s
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a stream event")
		}
		panic("unreachable")
	}

	// Subscribers first get a replay of the latest sample, then live ones.
	if s := readSample(); s.Cycle != 100 {
		t.Errorf("replayed sample cycle = %d, want 100", s.Cycle)
	}
	srv.Publish(testBundle(200))
	if s := readSample(); s.Cycle != 200 {
		t.Errorf("live sample cycle = %d, want 200", s.Cycle)
	}
}

func TestRenderPromDeterministic(t *testing.T) {
	p := testBundle(500)
	p.Sample.Power = &metrics.PowerSample{EnergyJ: 0.5, Watts: 12.5, PeakTempC: 61.25, MeanTempC: 55, Throttled: true}
	var a, b strings.Builder
	metrics.RenderProm(&a, p)
	metrics.RenderProm(&b, p)
	if a.String() != b.String() {
		t.Fatal("RenderProm is not deterministic")
	}
	for _, want := range []string{
		"xmt_power_watts 12.5",
		"xmt_temp_peak_celsius 61.25",
		"xmt_thermal_throttled 1",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("missing %q in:\n%s", want, a.String())
		}
	}
	// Every family is declared before use.
	for _, line := range strings.Split(strings.TrimSpace(a.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		if !strings.Contains(a.String(), fmt.Sprintf("# TYPE %s ", name)) {
			t.Errorf("metric %q has no TYPE declaration", name)
		}
	}
}

func TestServerCloseIdempotentAndUnblocksStreams(t *testing.T) {
	srv, addr := startServer(t)
	srv.Publish(testBundle(100))

	// Open two in-flight SSE streams and prove Close unblocks both.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		resp, err := http.Get("http://" + addr + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/stream: %s", resp.Status)
		}
		go func() {
			_, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			done <- err
		}()
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
			// Either clean EOF or a reset — all that matters is the handler
			// returned and the connection died instead of hanging forever.
		case <-time.After(5 * time.Second):
			t.Fatal("SSE stream still blocked after Close")
		}
	}

	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Publishing after Close is a harmless no-op.
	srv.Publish(testBundle(200))

	// New subscriptions are refused once closing.
	if resp, err := http.Get("http://" + addr + "/stream"); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Error("/stream accepted a subscriber after Close")
		}
		resp.Body.Close()
	}
}

func TestServerBindFailureIsCleanError(t *testing.T) {
	srv, addr := startServer(t)
	defer srv.Close()

	// Binding the same address again must fail synchronously with a wrapped
	// error, not panic or serve nothing.
	dup := metrics.NewServer()
	if _, err := dup.ListenAndServe(addr); err == nil {
		dup.Close()
		t.Fatal("duplicate bind succeeded")
	} else if !strings.Contains(err.Error(), "metrics: listen") {
		t.Errorf("bind error = %v, want a metrics: listen wrap", err)
	}
	// Close on a never-started server is a clean no-op too.
	if err := dup.Close(); err != nil {
		t.Errorf("Close after failed bind: %v", err)
	}
}

func TestServerStreamJobFilter(t *testing.T) {
	srv, addr := startServer(t)

	sub := func(query string) chan string {
		resp, err := http.Get("http://" + addr + "/stream" + query)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		lines := make(chan string, 16)
		go func() {
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
					lines <- data
				}
			}
			close(lines)
		}()
		return lines
	}
	read := func(lines chan string) *metrics.Sample {
		t.Helper()
		select {
		case data := <-lines:
			var s metrics.Sample
			if err := json.Unmarshal([]byte(data), &s); err != nil {
				t.Fatalf("stream line %q: %v", data, err)
			}
			return &s
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a stream event")
		}
		panic("unreachable")
	}

	all := sub("")
	onlyB := sub("?job=jB")

	pub := func(job string, cycle int64) {
		p := testBundle(cycle)
		p.Job = job
		srv.Publish(p)
	}
	pub("jA", 100)
	pub("jB", 200)

	// The unfiltered subscriber sees both samples in order.
	if s := read(all); s.Cycle != 100 {
		t.Errorf("unfiltered first sample cycle = %d, want 100", s.Cycle)
	}
	if s := read(all); s.Cycle != 200 {
		t.Errorf("unfiltered second sample cycle = %d, want 200", s.Cycle)
	}
	// The job-filtered subscriber sees only jB's sample.
	if s := read(onlyB); s.Cycle != 200 {
		t.Errorf("filtered sample cycle = %d, want 200 (jB only)", s.Cycle)
	}
}
