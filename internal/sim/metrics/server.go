package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"xmtgo/internal/obs"
	"xmtgo/internal/sim/engine"
	"xmtgo/internal/sim/stats"
)

// Status is the /status payload: the run's current position and health.
// Cycle and Instrs count from program start, across checkpoint resumes.
type Status struct {
	Cycle              int64  `json:"cycle"`
	Ticks              int64  `json:"ticks"`
	Instrs             uint64 `json:"instrs"`
	AliveTCUs          int    `json:"alive_tcus"`
	DecommissionedTCUs uint64 `json:"decommissioned_tcus"`
	FaultsInjected     uint64 `json:"faults_injected"`
	// WatchdogCycles is the configured no-retire window (0 = disabled);
	// WatchdogSlack estimates the remaining budget before the watchdog would
	// trip, at sample-interval granularity.
	WatchdogCycles int64 `json:"watchdog_cycles"`
	WatchdogSlack  int64 `json:"watchdog_slack,omitempty"`
	// TraceDropped counts sim trace-ring events evicted before draining
	// (previously visible only in the Chrome-trace footer).
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	Done         bool   `json:"done"`

	// Daemon is present when the xmtd core is being monitored (xmtd, and
	// xmtbatch, which runs its jobs on it).
	Daemon *DaemonStatus `json:"daemon,omitempty"`
}

// DaemonStatus is the xmtd daemon's health block on /status: queue depth,
// per-tenant occupancy and the robustness counters (docs/XMTD.md).
type DaemonStatus struct {
	QueueDepth int  `json:"queue_depth"`
	Running    int  `json:"running"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining,omitempty"`

	Tenants map[string]TenantOccupancy `json:"tenants,omitempty"`

	Preemptions uint64 `json:"preemptions"`
	Retries     uint64 `json:"retries"`
	Recoveries  uint64 `json:"recoveries"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`

	// Latencies summarizes the daemon's service-latency histograms
	// (internal/obs), keyed by obs.HistKeys; full bucket series are on
	// /metrics. TraceSpans/TraceDropped describe the lifecycle-span ring,
	// LogDropped the structured-log ring.
	Latencies    map[string]obs.HistSummary `json:"latencies,omitempty"`
	TraceSpans   int                        `json:"trace_spans,omitempty"`
	TraceDropped uint64                     `json:"trace_dropped,omitempty"`
	LogDropped   uint64                     `json:"log_dropped,omitempty"`
}

// TenantOccupancy is one tenant's share of the daemon's queue and workers.
type TenantOccupancy struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// Published is one immutable telemetry bundle: everything the HTTP
// handlers serve. The simulation publishes a fresh bundle at each sampling
// boundary and never mutates an already-published one.
type Published struct {
	Status   Status
	Counters *stats.Snapshot
	Sample   *Sample
	// Windows, when present, is the cluster domain's window counts by span
	// and end cause (System.WindowStats): host-scheduling dynamics, the one
	// part of a bundle that depends on the lookahead.
	Windows *engine.WindowStats
	// Job labels the bundle with the daemon job that produced it, so
	// /stream?job=ID subscribers see only that job's samples.
	Job string
}

// Server is the live metrics endpoint: Prometheus-text /metrics, JSON
// /status, and an SSE /stream of interval samples (optionally filtered to
// one daemon job with ?job=ID). It reads only immutable Published bundles
// swapped in atomically from the publishing goroutine, so serving
// concurrent scrapes cannot perturb the simulation.
type Server struct {
	latest atomic.Pointer[Published]
	daemon atomic.Pointer[DaemonStatus]

	mu     sync.Mutex
	subs   map[chan []byte]string // value: job filter ("" = every sample)
	closed bool

	// The mux is created lazily and shared, so routes registered after
	// ListenAndServe (the daemon attaches /logs and its histogram renderer
	// once it finishes recovery) are served by the running listener.
	muxOnce   sync.Once
	mux       *http.ServeMux
	promExtra atomic.Pointer[func(io.Writer)]

	srv *http.Server
	ln  net.Listener
}

// NewServer creates an unstarted server.
func NewServer() *Server {
	return &Server{subs: make(map[chan []byte]string)}
}

// Publish swaps in the latest bundle and fans the interval sample out to
// /stream subscribers. Non-blocking: a slow subscriber drops samples rather
// than stalling the simulation. Safe to call concurrently from several
// publishers (the daemon runs one per active job) and after Close (a
// no-op fan-out then).
func (s *Server) Publish(p *Published) {
	if d := s.daemon.Load(); d != nil && p.Status.Daemon == nil {
		p.Status.Daemon = d
	}
	var data []byte
	if p.Sample != nil {
		data, _ = json.Marshal(p.Sample)
	}
	// Store under the lock a new subscriber takes to register and read its
	// replay: each sample then reaches it either as the replay or through
	// its channel, once, in publish order.
	s.mu.Lock()
	s.latest.Store(p)
	if s.closed || data == nil {
		s.mu.Unlock()
		return
	}
	for ch, filter := range s.subs {
		if filter != "" && filter != p.Job {
			continue
		}
		select {
		case ch <- data:
		default: // subscriber is behind; drop
		}
	}
	s.mu.Unlock()
}

// PublishDaemon updates the daemon block merged into /status.
func (s *Server) PublishDaemon(d DaemonStatus) {
	s.daemon.Store(&d)
	if cur := s.latest.Load(); cur != nil {
		next := *cur
		next.Status.Daemon = &d
		s.latest.Store(&next)
	} else {
		s.latest.Store(&Published{Status: Status{Daemon: &d}})
	}
}

// Latest returns the most recently published bundle (nil before the first
// publish).
func (s *Server) Latest() *Published { return s.latest.Load() }

// Handler returns the HTTP mux (exported for tests and embedding). The mux
// is shared across calls, so later Handle registrations reach an already-
// serving listener (http.ServeMux is safe for concurrent Handle/ServeHTTP).
func (s *Server) Handler() http.Handler {
	s.muxOnce.Do(func() {
		s.mux = http.NewServeMux()
		s.mux.HandleFunc("/metrics", s.handleMetrics)
		s.mux.HandleFunc("/status", s.handleStatus)
		s.mux.HandleFunc("/stream", s.handleStream)
	})
	return s.mux
}

// Handle registers an additional route (e.g. the daemon's /logs). Safe
// before or after ListenAndServe.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.Handler()
	s.mux.Handle(pattern, h)
}

// SetPromExtra installs a renderer appended to every /metrics response —
// the daemon uses it to expose its service-latency histogram series. It
// runs even before the first published bundle.
func (s *Server) SetPromExtra(fn func(io.Writer)) {
	s.promExtra.Store(&fn)
}

// EnablePprof mounts net/http/pprof's profiling handlers under
// /debug/pprof/ on the server's mux (opt-in via the CLIs' -pprof flag).
func (s *Server) EnablePprof() {
	s.Handler()
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ListenAndServe binds addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, so callers may pass
// port 0 and discover the real port. A bind failure (port already in use,
// bad address) is returned synchronously so CLIs can report it and exit
// cleanly instead of serving nothing.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener and disconnects /stream subscribers. It is
// idempotent — a second Close is a no-op returning nil — and unblocks every
// in-flight SSE stream (their subscription channels close, the handlers
// return, and the HTTP server tears the connections down).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ch := range s.subs {
		close(ch)
		delete(s.subs, ch)
	}
	s.mu.Unlock()
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := s.latest.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if p == nil {
		fmt.Fprintln(w, "# no sample published yet")
	} else {
		RenderProm(w, p)
	}
	if fn := s.promExtra.Load(); fn != nil {
		(*fn)(w)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	p := s.latest.Load()
	w.Header().Set("Content-Type", "application/json")
	if p == nil {
		fmt.Fprintln(w, "{}")
		return
	}
	data, err := json.MarshalIndent(&p.Status, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(data, '\n'))
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	jobFilter := r.URL.Query().Get("job")

	ch := make(chan []byte, 64)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "server closing", http.StatusServiceUnavailable)
		return
	}
	s.subs[ch] = jobFilter
	replay := s.latest.Load()
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if _, live := s.subs[ch]; live {
			delete(s.subs, ch)
			close(ch)
		}
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Flush the headers right away: a subscriber that connects before the
	// first matching sample must still see its request complete instead of
	// blocking on an unsent status line.
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Replay the latest sample immediately so a subscriber sees data even
	// between boundaries.
	if p := replay; p != nil && p.Sample != nil &&
		(jobFilter == "" || jobFilter == p.Job) {
		if data, err := json.Marshal(p.Sample); err == nil {
			fmt.Fprintf(w, "data: %s\n\n", data)
			fl.Flush()
		}
	}
	for {
		select {
		case data, ok := <-ch:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
