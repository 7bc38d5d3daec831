package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/registry"
)

// The fanout workload: a registry serves fanoutStreams live streams from
// the hubs' own CBR generators; in-process pipe subscribers join through
// Registry.Route. The fixed-load window runs below the knee; a bisection
// over the subscriber count then finds the capacity at the delay SLO.
const (
	fanoutStreams = 4
	fanoutMu      = 2000 // packets/s per stream
	fanoutPayload = 256  // bytes
	fanoutSubs    = 300  // fixed load, spread round-robin over the streams
	fanoutLag     = 2048 // ring size: 1 s of lag before DropOldest
	// sloDelay is the startup delay τ the capacity search holds p99 under
	// (the late threshold of cmd/dmpfanout).
	sloDelay     = 150 * time.Millisecond
	capacityLo   = 500 // p99 of a few ms today; probed first, capacity 0 if it fails
	capacityHi   = 3000
	capacityStep = 50
	probeSettle  = 400 * time.Millisecond
	probeWindow  = 1200 * time.Millisecond
	// settle separates the release of parked subscribers from a window,
	// so the frames they buffered while parked do not count.
	settle    = 500 * time.Millisecond
	setupReps = 25
)

// frameSub is one single-path subscriber's reader: it checks every
// frame's payload byte-for-byte and its sequence order, and while the
// window is open records the frame's delay from its generation stamp.
type frameSub struct {
	conn    *pipeEnd
	pat     *pattern
	payload int
	start   <-chan struct{} // reading starts when this closes
	ready   *atomic.Int64   // incremented at the first frame
	window  *atomic.Bool
	delays  *histBatch
	led     *ledger // nil, or this reader's ledger column
	col     int

	// Owned by the reader goroutine until it exits.
	delivered, missing, badPayload, badOrder int64
}

func (s *frameSub) run() {
	defer s.delays.flush()
	defer s.conn.Close()
	<-s.start
	if _, _, err := core.ReadStreamHeader(s.conn); err != nil {
		return
	}
	buf := make([]byte, core.FrameHeaderSize+s.payload)
	var base uint64
	var last uint32
	first := true
	for {
		if _, err := io.ReadFull(s.conn, buf); err != nil {
			return
		}
		pkt, gen, err := core.ParseFrameHeader(buf)
		if err != nil || pkt == core.EndMarker {
			return
		}
		now := time.Now().UnixNano()
		seq, ok := s.pat.check(buf[core.FrameHeaderSize:])
		if first {
			first = false
			base = seq - uint64(pkt)
			s.ready.Add(1)
		} else if pkt <= last {
			s.badOrder++
		} else if gap := int64(pkt - last - 1); gap > 0 && s.window.Load() {
			s.missing += gap
		}
		if !ok || seq != base+uint64(pkt) {
			s.badPayload++
		}
		last = pkt
		if s.window.Load() {
			s.delivered++
			s.delays.add(now - gen)
			s.led.note(s.col, seq, gen, now)
		}
	}
}

// population is a set of subscribers attached through the registry.
type population struct {
	subs   []*frameSub
	wg     sync.WaitGroup
	start  chan struct{}
	ready  atomic.Int64
	window atomic.Bool
	delays sharedHist
	routes []time.Duration // per Registry.Route call
}

// attach routes n fresh subscribers, round-robin over the streams. Their
// readers stay parked until release, so attaching the n-th subscriber
// does not compete with n-1 already streaming.
func attach(reg *registry.Registry, ids []string, n int, pat *pattern, tr *tracer, parent int64, led *ledger) (*population, error) {
	p := &population{start: make(chan struct{}), routes: make([]time.Duration, 0, n)}
	for i := 0; i < n; i++ {
		tok, err := core.NewToken()
		if err != nil {
			p.close()
			return nil, fmt.Errorf("token: %w", err)
		}
		server, client := newPipe()
		s := &frameSub{
			conn: client, pat: pat, payload: fanoutPayload, start: p.start,
			ready: &p.ready, window: &p.window, delays: newHistBatch(&p.delays),
		}
		if led != nil && i < fanoutStreams*2 && i%fanoutStreams == 0 {
			// Ledger columns follow two subscribers of stream 0.
			s.led, s.col = led, led.column(fmt.Sprintf("sub%d", i))
		}
		p.subs = append(p.subs, s)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			s.run()
		}()
		t0 := time.Now()
		err = reg.Route(server, core.Join{StreamID: ids[i%len(ids)], Token: tok})
		t1 := time.Now()
		p.routes = append(p.routes, t1.Sub(t0))
		tr.add("registry.Route", parent, t0, t1)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("route subscriber %d: %w", i, err)
		}
	}
	return p, nil
}

func (p *population) release() {
	select {
	case <-p.start:
	default:
		close(p.start)
	}
}

// waitReady blocks until every subscriber has received a frame.
func (p *population) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for p.ready.Load() < int64(len(p.subs)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d subscribers received a frame within %v", p.ready.Load(), len(p.subs), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close hangs up every subscriber and waits for the readers to exit.
func (p *population) close() {
	p.release()
	for _, s := range p.subs {
		_ = s.conn.Close()
	}
	p.wg.Wait()
}

// totals sums the readers' counters; call after close.
func (p *population) totals() (delivered, missing, badPayload, badOrder int64) {
	for _, s := range p.subs {
		delivered += s.delivered
		missing += s.missing
		badPayload += s.badPayload
		badOrder += s.badOrder
	}
	return
}

// newFanoutRegistry starts the registry and its streams.
func newFanoutRegistry(pat *pattern) (*registry.Registry, []*hub.Hub, []string, error) {
	reg, err := registry.New(registry.Config{Hub: hub.Config{
		Stream:    core.Config{Mu: fanoutMu, PayloadSize: fanoutPayload, Count: 1 << 40, Fill: pat.fill},
		LagWindow: fanoutLag,
		Policy:    hub.DropOldest,
		// Single-path subscribers that never re-attach: no grace, no
		// resends, so a hang-up frees its slot at once.
		ReattachGrace: -1,
		ResendWindow:  -1,
	}})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("registry: %w", err)
	}
	ids := make([]string, fanoutStreams)
	hubs := make([]*hub.Hub, fanoutStreams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		if hubs[i], err = reg.Create(ids[i]); err != nil {
			reg.Close()
			return nil, nil, nil, fmt.Errorf("create %s: %w", ids[i], err)
		}
	}
	return reg, hubs, ids, nil
}

// fanoutSetup builds the registry and attaches n subscribers, returning
// once every one of them has received a frame.
func fanoutSetup(pat *pattern, n int, tr *tracer, parent int64, led *ledger) (*registry.Registry, []*hub.Hub, *population, error) {
	reg, hubs, ids, err := newFanoutRegistry(pat)
	if err != nil {
		return nil, nil, nil, err
	}
	pop, err := attach(reg, ids, n, pat, tr, parent, led)
	if err != nil {
		reg.Close()
		return nil, nil, nil, err
	}
	pop.release()
	if err := pop.waitReady(30 * time.Second); err != nil {
		pop.close()
		reg.Close()
		return nil, nil, nil, err
	}
	return reg, hubs, pop, nil
}

type hubCounters struct{ dropped, copied, writevs, batched int64 }

func readHubs(hubs []*hub.Hub) hubCounters {
	var c hubCounters
	for _, h := range hubs {
		c.dropped += h.TotalDropped()
		bc, wv, fb := h.DeliveryCounters()
		c.copied += bc
		c.writevs += wv
		c.batched += fb
	}
	return c
}

func runFanout(r *run, o *outcome) error {
	tr := r.tr
	root := tr.begin("fanout", 0)
	defer tr.end(root)
	pat := newPattern(r.seed, fanoutPayload)
	var led *ledger
	if tr != nil {
		led = newLedger(int(fanoutMu * (r.seconds + 30)))
		tr.ledger = led
	}

	mem := startSampler(20 * time.Millisecond)
	memStopped := false
	defer func() {
		if !memStopped {
			mem.stop()
		}
	}()

	// Set up setupReps times and keep the last population for the window.
	var setups []float64
	var reg *registry.Registry
	var hubs []*hub.Hub
	var pop *population
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		sp := tr.begin("setup", root)
		t0 := time.Now()
		var l *ledger
		if rep == setupReps-1 {
			l = led
		}
		var err error
		reg, hubs, pop, err = fanoutSetup(pat, fanoutSubs, tr, sp, l)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		if rep < setupReps-1 {
			pop.close()
			reg.Close()
		}
	}
	defer func() { reg.Close() }()
	o.e2e["setup_s"] = metric{median(setups), "s"}
	time.Sleep(settle)

	// Fixed-load window.
	var lags hist // owned by the probe goroutine until probes.stop
	var heldPeak int64
	var probes *sampler
	if tr != nil {
		probes = startSampler(100*time.Millisecond, func() {
			var held int64
			for _, h := range hubs {
				held += h.BytesHeld()
				for _, s := range h.Stats().Subs {
					lags.record(s.Lag)
				}
			}
			heldPeak = max(heldPeak, held)
		})
	}
	var prof *cpuProfile
	var allocs0 map[string]int64
	if tr != nil {
		var err error
		if allocs0, err = allocsByLayer(); err != nil {
			return err
		}
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	win := tr.begin("window", root)
	rt0 := readRuntime()
	c0 := readHubs(hubs)
	cpu0 := cpuNanos()
	pop.window.Store(true)
	time.Sleep(r.window())
	pop.window.Store(false)
	cpu1 := cpuNanos()
	c1 := readHubs(hubs)
	rt1 := readRuntime()
	tr.end(win)
	var cpuBy, allocs1 map[string]int64
	if tr != nil {
		var err error
		if cpuBy, err = prof.stop(); err != nil {
			return err
		}
		probes.stop()
		if allocs1, err = allocsByLayer(); err != nil {
			return err
		}
	}
	pop.close()
	o.e2e["mem_peak_mb"] = metric{float64(mem.stop()) / 1e6, "MB"}
	memStopped = true

	delivered, missing, badPayload, badOrder := pop.totals()
	o.attempted, o.failed = delivered+missing, missing
	if badPayload > 0 {
		o.checkf("%d frames failed the payload check", badPayload)
	}
	if badOrder > 0 {
		o.checkf("%d frames arrived out of sequence order on a single path", badOrder)
	}
	if delivered == 0 {
		return errors.New("no frames delivered in the window")
	}
	reportDelays(o, pop.delays.snapshot())
	o.e2e["cpu_ns_per_frame"] = metric{float64(cpu1-cpu0) / float64(delivered), "ns"}
	o.extra["frames_per_s"] = metric{float64(delivered) / r.seconds, "1/s"}
	o.extra["window_dropped_frames"] = metric{float64(c1.dropped - c0.dropped), "count"}

	if tr != nil {
		perFrame := func(v int64) float64 { return float64(v) / float64(delivered) }
		profileBreakdown(o, cpuBy, delivered)
		o.layer["registry.route_us_p50"] = metric{durQuantile(pop.routes, 0.50).Seconds() * 1e6, "us"}
		o.layer["registry.route_us_p99"] = metric{durQuantile(pop.routes, 0.99).Seconds() * 1e6, "us"}
		for _, m := range []string{"registry", "hub"} {
			o.layer[m+".cpu_ns_per_frame"] = metric{perFrame(cpuBy[m]), "ns"}
			o.layer[m+".allocs_per_frame"] = metric{perFrame(allocs1[m] - allocs0[m]), "count"}
		}
		if wv := c1.writevs - c0.writevs; wv > 0 {
			o.layer["hub.frames_per_writev"] = metric{float64(c1.batched-c0.batched) / float64(wv), "count"}
		}
		o.layer["hub.bytes_copied_per_frame"] = metric{perFrame(c1.copied - c0.copied), "B"}
		o.layer["hub.lag_frames_p99"] = metric{lags.quantile(0.99), "count"}
		o.layer["hub.dropped_frames"] = metric{float64(c1.dropped - c0.dropped), "count"}
		o.layer["hub.bytes_held_peak"] = metric{float64(heldPeak), "B"}
		gc, sched := runtimeDelta(rt0, rt1)
		o.layer["runtime.gc_cpu_ns_per_frame"] = metric{gc * 1e9 / float64(delivered), "ns"}
		o.layer["runtime.sched_latency_us_p99"] = metric{sched * 1e6, "us"}
		return nil
	}

	// Capacity at the SLO, on fresh populations of each probed size.
	capSpan := tr.begin("capacity", root)
	defer tr.end(capSpan)
	reg.Close()
	reg, hubs, ids, err := newFanoutRegistry(pat)
	if err != nil {
		return err
	}
	var probeErr error
	pass := func(n int) bool {
		if probeErr != nil {
			return false
		}
		ok, p99, dropped, err := probe(reg, hubs, ids, n, pat)
		if err != nil {
			probeErr = err
			return false
		}
		fmt.Printf("probe fanout subs=%d p99_ms=%.1f dropped=%d pass=%v\n", n, p99/1e6, dropped, ok)
		return ok
	}
	capacity, probesRun := largestPassing(capacityLo, capacityHi, capacityStep, pass)
	if probeErr != nil {
		return fmt.Errorf("capacity probe: %w", probeErr)
	}
	o.extra["capacity_subs"] = metric{float64(capacity), "subscribers"}
	o.extra["capacity_probes"] = metric{float64(len(probesRun)), "count"}
	return nil
}

// probe runs n fresh subscribers for a settle period and a short window
// and reports whether the window met the SLO: delay p99 within sloDelay
// and no frame dropped.
func probe(reg *registry.Registry, hubs []*hub.Hub, ids []string, n int, pat *pattern) (ok bool, p99 float64, dropped int64, err error) {
	pop, err := attach(reg, ids, n, pat, nil, 0, nil)
	if err != nil {
		return false, 0, 0, err
	}
	defer pop.close()
	pop.release()
	if err := pop.waitReady(30 * time.Second); err != nil {
		return false, 0, 0, err
	}
	time.Sleep(probeSettle)
	c0 := readHubs(hubs)
	pop.window.Store(true)
	time.Sleep(probeWindow)
	pop.window.Store(false)
	c1 := readHubs(hubs)
	pop.close()
	p99 = pop.delays.snapshot().quantile(0.99)
	dropped = c1.dropped - c0.dropped
	return p99 <= float64(sloDelay) && dropped == 0, p99, dropped, nil
}

// reportDelays sets the delay metrics of a streaming workload. The p99 —
// the startup delay that keeps f(τ) ≤ 1% over the window — is printed
// with its sample count but not gated: on the reference machine its
// run-to-run spread is several times any usable bound (see README.md).
func reportDelays(o *outcome, d *hist) {
	o.e2e["delay_p50_ms"] = metric{d.quantile(0.50) / 1e6, "ms"}
	o.extra["delay_p99_ms"] = metric{d.quantile(0.99) / 1e6, "ms"}
	o.extra["delay_samples"] = metric{float64(d.n), "count"}
}
