package cycle

import (
	"xmtgo/internal/bitset"
	"xmtgo/internal/sim/engine"
)

// ICN models the high-throughput mesh-of-trees interconnection network
// between clusters (plus the Master TCU's dedicated send path) and the
// shared cache modules. It is implemented as a macro-actor — the case the
// paper singles out (§III-D): under parallel traffic the network touches
// every cluster every cycle, so per-component events would cross the
// scheduling-overhead threshold, and one actor handles all ports in one
// event per ICN cycle. Unlike the paper's poll-all macro-actor it visits
// only the ports that hold work (ports, arriving): in a serial section one
// of 129 ports is busy, and a scan of the rest was the largest line of the
// serial-memory profile (docs/PERF.md §Activity-proportional memory system).
//
// Timing model (transaction level): a package injected at cycle T arrives
// at its cache module's input after the base traversal latency; each
// cluster may inject ICNInjectPerCyc packages per cycle and each module
// accepts ICNAcceptPerCyc per cycle into a bounded service queue —
// contention beyond that queues in the network, which is how hotspots slow
// down exactly as the address-hashing discussion in the paper expects.
type ICN struct {
	sys *System

	// arrival[m] holds packages in flight to module m with their earliest
	// acceptance time.
	arrival [][]arrivalPkt

	// ports holds the injection ports whose send queue may be non-empty
	// (cluster i is port i, the master the last), arriving the modules with
	// packages in arrival. A port enters where its queue grows on the serial
	// side (the obWakeICN replay, Master.send), a module in inject.
	//
	// These active sets (and System.cacheActive) are walked in ascending
	// index order, the order the all-ports scans they replace visited in —
	// module service order is memory order, so that order is the
	// determinism contract. Membership is conservative: a member whose
	// queue turns out empty (a rollback truncated it, a quiescent
	// checkpoint drained it) is dropped on its next visit; a non-empty
	// queue outside its set would never be visited again, so every append
	// site sets the bit (TestActiveSetInvariant).
	ports    bitset.Set
	arriving bitset.Set

	hopsPerTraversal int
}

type arrivalPkt struct {
	p     *Package
	ready engine.Time
	// ghost marks an injected duplicate (ICNDup fault): it consumes an
	// accept slot at the module port and is then discarded, never reaching
	// the service queue (packages are idempotent at most one delivery).
	ghost bool
}

func newICN(sys *System) *ICN {
	depth := int(log2u(uint32(sys.Cfg.Clusters))) + int(log2u(uint32(sys.Cfg.CacheModules))) + 2
	return &ICN{
		sys:              sys,
		arrival:          make([][]arrivalPkt, sys.Cfg.CacheModules),
		ports:            bitset.New(sys.Cfg.Clusters + 1),
		arriving:         bitset.New(sys.Cfg.CacheModules),
		hopsPerTraversal: depth,
	}
}

// asyncSend routes one package over the asynchronous interconnect variant
// (paper §III-F, following the GALS network of [39]): instead of clocked
// hops, the package advances with continuous-time handshake delays — no
// quantization to ICN clock edges. This exercises the DE engine's
// continuous time concept; a DT simulator could not express it. Injection
// ports space packages by ICNAsyncGapTicks; delivery retries while the
// module's service queue is full.
func (s *System) asyncSend(p *Package, port int, now engine.Time) {
	s.Stats.ICNTraversals++
	s.Stats.ICNHops += uint64(s.icn.hopsPerTraversal)
	s.scheduleAsyncDeliver(p, s.asyncDepart(p, port, now))
}

// asyncDepart reserves the injection port and returns the arrival time.
// Safe in the cluster compute phase: each port index is owned by exactly
// one cluster (or the master), so the port-free bookkeeping is local.
func (s *System) asyncDepart(p *Package, port int, now engine.Time) engine.Time {
	cfg := s.Cfg
	start := now
	if s.asyncPortFree[port] > start {
		start = s.asyncPortFree[port]
	}
	s.asyncPortFree[port] = start + cfg.ICNAsyncGapTicks
	p.Hops += s.icn.hopsPerTraversal
	return start + int64(s.icn.hopsPerTraversal)*cfg.ICNAsyncHopTicks
}

// scheduleAsyncDeliver schedules the package's handshake delivery; it
// retries while the module's service queue is full. Serial contexts only
// (the cluster compute phase defers it through the outbox).
func (s *System) scheduleAsyncDeliver(p *Package, arrive engine.Time) {
	cfg := s.Cfg
	// Armed ICN faults shift the handshake arrival. Consumed here — the
	// serial point every async send funnels through — not in asyncDepart,
	// which runs in the parallel compute phase.
	if inj := s.injector; inj != nil && len(inj.icnArmed) > 0 {
		arrive = inj.asyncICNFault(arrive)
	}
	var deliver func(t engine.Time)
	deliver = func(t engine.Time) {
		mod := s.modules[p.Module]
		if mod.accept(p) {
			s.wakeCaches(t)
			return
		}
		s.Stats.CacheQueueFull[p.Module]++
		s.Sched.ScheduleFunc(t+cfg.CachePeriod, engine.PrioTransfer, deliver)
	}
	s.Sched.ScheduleFunc(arrive, engine.PrioTransfer, deliver)
}

// returnLatency is the response-path delay from a cache module back to the
// requester under the configured interconnect variant.
func (s *System) returnLatency() engine.Time {
	if s.Cfg.ICNAsync {
		return int64(s.icn.hopsPerTraversal) * s.Cfg.ICNAsyncHopTicks
	}
	return s.Cfg.ICNBaseLatency * s.Cfg.ICNPeriod
}

// inject moves up to ICNInjectPerCyc packages from one port's send queue
// into the network and reports whether the queue still holds packages.
func (n *ICN) inject(q *[]*Package, now engine.Time) bool {
	cfg := n.sys.Cfg
	latency := cfg.ICNBaseLatency * cfg.ICNPeriod
	inj := n.sys.injector
	qq := *q
	k := 0
	for k < cfg.ICNInjectPerCyc && k < len(qq) {
		p := qq[k]
		k++
		n.sys.Stats.ICNTraversals++
		n.sys.Stats.ICNHops += uint64(n.hopsPerTraversal)
		p.Hops += n.hopsPerTraversal
		ready := now + latency
		ghost := false
		if inj != nil && len(inj.icnArmed) > 0 {
			// The ICN macro-actor is serial: consuming the armed-fault
			// queue here keeps faulty runs deterministic.
			ready, ghost = inj.syncICNFault(ready, latency)
		}
		n.arriving.Set(p.Module)
		n.arrival[p.Module] = append(n.arrival[p.Module], arrivalPkt{p: p, ready: ready})
		if ghost {
			n.arrival[p.Module] = append(n.arrival[p.Module], arrivalPkt{p: p, ready: ready, ghost: true})
		}
	}
	if k > 0 {
		// Shift the remainder down in place: slicing the head off
		// (q = q[1:]) would strand the backing array and force the
		// sender to reallocate on every append.
		rest := copy(qq, qq[k:])
		for i := rest; i < len(qq); i++ {
			qq[i] = nil
		}
		*q = qq[:rest]
	}
	return len(*q) > 0
}

// Tick drains the active injection ports and feeds module queues.
func (n *ICN) Tick(cycle int64, now engine.Time) bool {
	cfg := n.sys.Cfg
	busy := false
	clusters := n.sys.clusters
	for i := n.ports.Next(0); i >= 0; i = n.ports.Next(i + 1) {
		q := &n.sys.master.sendQ
		if i < len(clusters) {
			q = &clusters[i].sendQ
		}
		if n.inject(q, now) {
			busy = true
		} else {
			n.ports.Clear(i)
		}
	}

	// Hand arrived packages to the modules, honoring their accept rate and
	// service-queue capacity. earliest/blocked drive the idle-skip below.
	earliest := engine.MaxTime
	blocked := false
	for m := n.arriving.Next(0); m >= 0; m = n.arriving.Next(m + 1) {
		q := n.arrival[m]
		mod := n.sys.modules[m]
		accepted := 0
		i := 0
		for ; i < len(q); i++ {
			if q[i].ready > now || accepted >= cfg.ICNAcceptPerCyc {
				break
			}
			if q[i].ghost {
				// Duplicate from an ICNDup fault: burns an accept slot,
				// then the port's dedup logic discards it.
				accepted++
				continue
			}
			if !mod.accept(q[i].p) {
				n.sys.Stats.CacheQueueFull[m]++
				break
			}
			accepted++
		}
		if i > 0 {
			q = append(q[:0], q[i:]...)
			n.arrival[m] = q
		}
		if len(q) == 0 {
			n.arriving.Clear(m)
		}
		for _, a := range q {
			if a.ready <= now {
				// Deferred by the accept budget or module backpressure:
				// must retry next cycle.
				blocked = true
			} else if a.ready < earliest {
				earliest = a.ready
			}
		}
		if accepted > 0 {
			n.sys.wakeCaches(now)
		}
	}
	if busy || blocked {
		return true
	}
	if earliest < engine.MaxTime {
		// Everything in flight is timed for a future cycle: sleep through
		// the empty edges and tick again exactly when the first package can
		// be handed over. Skipped idle cycles cost no scheduler events —
		// and leave the cluster domain's lookahead windows unclamped.
		n.sys.icnMA.WakeAt(now, earliest)
	}
	return false
}
