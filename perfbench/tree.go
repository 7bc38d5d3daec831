package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
	"dmpstream/internal/hub"
	"dmpstream/internal/registry"
	"dmpstream/internal/relay"
)

// The tree workload: an origin registry feeds one edge relay over two
// loopback TCP paths (the only real sockets, K = 2); the relay re-fans to
// dual-path core.Client leaves on pipes; one probe subscriber sits on the
// origin. A seeded schedule makes leaves join and leave and severs single
// leaf paths and single upstream paths, which redial and re-attach.
const (
	treeStream    = "tree"
	treeMu        = 1000 // packets/s
	treePayload   = 1000 // bytes
	treeLeaves    = 12   // stable leaves, present for the whole window
	treeEvery     = 250 * time.Millisecond
	treeEndWait   = 20 * time.Second
	treeLeafGrace = 3 * time.Second
)

// The churn schedule cycles through these events in order, one per
// treeEvery slot (an upstream sever every 3 s); the seed picks each
// event's target and its time within its slot.
type treeEvent int

const (
	evJoin treeEvent = iota
	evSeverLeafPath
	evSeverUpstream
	evLeave
)

var treeCycle = []treeEvent{
	evJoin, evSeverLeafPath, evLeave, evSeverLeafPath,
	evJoin, evSeverLeafPath, evLeave, evSeverLeafPath,
	evJoin, evSeverLeafPath, evLeave, evSeverUpstream,
}

// capturingListener records the connections it accepts, so the benchmark
// can sever an upstream path from the origin's side.
type capturingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn // guarded by mu
}

func (l *capturingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// sever closes one accepted connection, chosen by rng among the most
// recent two (the relay's live paths).
func (l *capturingListener) sever(rng *rand.Rand) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.conns)
	if n == 0 {
		return false
	}
	pick := n - 1
	if n >= 2 {
		pick = n - 1 - rng.Intn(2)
	}
	_ = l.conns[pick].Close()
	l.conns = append(l.conns[:pick], l.conns[pick+1:]...)
	return true
}

// leafConn is a leaf's client pipe end; it stamps the arrival of the
// first whole frame after the stream header, ending a join.
type leafConn struct {
	*pipeEnd
	need   int64 // bytes through the first frame
	got    int64
	dialed time.Time
	joined func(d time.Duration)
}

func (c *leafConn) Read(b []byte) (int, error) {
	n, err := c.pipeEnd.Read(b)
	if c.got < c.need {
		c.got += int64(n)
		if c.got >= c.need && c.joined != nil {
			c.joined(time.Since(c.dialed))
		}
	}
	return n, err
}

// leaf is one dual-path subscriber of the relay.
type leaf struct {
	id      int
	stable  bool
	pat     *pattern
	window  *atomic.Bool
	delays  *histBatch
	led     *ledger
	col     int
	leaving atomic.Bool

	mu    sync.Mutex
	conns [2]*leafConn // guarded by mu; current connection per path

	// Written under the receiver's lock (OnPacket), read after Run.
	first                 bool
	base                  uint64
	seen                  []uint64 // bitset over rebased packet numbers
	delivered, badPayload int64
	dupes                 int64
	ready                 chan struct{}

	trace *core.Trace
	err   error
	done  chan struct{}
}

func (lf *leaf) onPacket(pkt uint32, gen int64, payload []byte) {
	now := time.Now().UnixNano()
	seq, ok := lf.pat.check(payload)
	if lf.first {
		lf.first = false
		lf.base = seq - uint64(pkt)
		close(lf.ready)
	}
	if !ok || seq != lf.base+uint64(pkt) {
		lf.badPayload++
	}
	w := int(pkt / 64)
	for w >= len(lf.seen) {
		lf.seen = append(lf.seen, 0)
	}
	if lf.seen[w]&(1<<(pkt%64)) != 0 {
		lf.dupes++
	}
	lf.seen[w] |= 1 << (pkt % 64)
	if lf.window.Load() {
		lf.delivered++
		lf.delays.add(now - gen)
		lf.led.note(lf.col, seq, gen, now)
	}
}

// countSeen counts the rebased packet numbers in [lo, hi) delivered.
func (lf *leaf) countSeen(lo, hi int64) int64 {
	var n int64
	for p := lo; p < hi; p++ {
		if w := int(p / 64); w < len(lf.seen) && lf.seen[w]&(1<<(p%64)) != 0 {
			n++
		}
	}
	return n
}

// sever closes path k's current connection; the client redials it.
func (lf *leaf) sever(k int) {
	lf.mu.Lock()
	c := lf.conns[k]
	lf.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// leave stops redialing and hangs up both paths.
func (lf *leaf) leave() {
	lf.leaving.Store(true)
	lf.sever(0)
	lf.sever(1)
}

// treeRig is one built tree: origin, probe, relay and leaves.
type treeRig struct {
	r      *run
	pat    *pattern
	reg    *registry.Registry
	ln     *capturingListener
	serve  sync.WaitGroup
	probe  *population
	rl     *relay.Relay
	rhub   *hub.Hub
	window atomic.Bool
	delays sharedHist
	led    *ledger
	tr     *tracer
	parent atomic.Int64 // span that Attach spans belong to
	readyS float64      // relay.New until Ready

	mu      sync.Mutex
	leaves  []*leaf         // guarded by mu
	attach  []time.Duration // guarded by mu; relay-hub Attach calls
	joins   []time.Duration // guarded by mu; dial → first frame, churn joins and re-attaches
	redials int64           // guarded by mu
	leafWG  sync.WaitGroup
	rng     *rand.Rand
}

func buildTree(r *run, pat *pattern, led *ledger, parent int64) (*treeRig, error) {
	t := &treeRig{r: r, pat: pat, led: led, tr: r.tr, rng: rand.New(rand.NewSource(r.seed))}
	t.parent.Store(parent)
	reg, err := registry.New(registry.Config{Hub: hub.Config{
		Stream:    core.Config{Mu: treeMu, PayloadSize: treePayload, Count: 1 << 40, Fill: pat.fill},
		LagWindow: 2048,
	}})
	if err != nil {
		return nil, fmt.Errorf("origin registry: %w", err)
	}
	t.reg = reg
	if _, err := reg.Create(treeStream); err != nil {
		t.close()
		return nil, fmt.Errorf("origin stream: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	t.ln = &capturingListener{Listener: ln}
	t.serve.Add(1)
	go func() {
		defer t.serve.Done()
		_ = reg.Serve(t.ln)
	}()

	// The probe: an ordinary subscriber on the origin, the reference
	// point for the delay the relay tier adds.
	if t.probe, err = attachProbe(reg, pat, &t.window, led); err != nil {
		t.close()
		return nil, err
	}

	sp := t.tr.begin("relay.New", parent)
	t0 := time.Now()
	addr := ln.Addr().String()
	t.rl, err = relay.New(relay.Config{
		// The same origin twice: two candidates, so a severed path
		// rotates to the other one (a failover) before redialing.
		Upstreams: []string{addr, addr},
		StreamID:  treeStream,
		Paths:     2,
		Redial:    core.RedialPolicy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Multiplier: 2, Jitter: 0.3, Seed: r.seed},
		Hub:       hub.Config{LagWindow: 2048, ReattachGrace: treeLeafGrace},
	})
	if err != nil {
		t.close()
		return nil, fmt.Errorf("relay: %w", err)
	}
	select {
	case <-t.rl.Ready():
	case <-time.After(10 * time.Second):
		t.close()
		return nil, errors.New("relay not ready within 10s")
	}
	t.tr.end(sp)
	t.readyS = time.Since(t0).Seconds()
	t.rhub = t.rl.Hub()
	for i := 0; i < treeLeaves; i++ {
		t.startLeaf(true)
	}
	for _, lf := range t.snapshotLeaves() {
		select {
		case <-lf.ready:
		case <-time.After(10 * time.Second):
			t.close()
			return nil, fmt.Errorf("leaf %d received no frame within 10s", lf.id)
		}
	}
	if err := t.probe.waitReady(10 * time.Second); err != nil {
		t.close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	return t, nil
}

// attachProbe routes one single-path subscriber to the origin stream.
func attachProbe(reg *registry.Registry, pat *pattern, window *atomic.Bool, led *ledger) (*population, error) {
	p := &population{start: make(chan struct{})}
	tok, err := core.NewToken()
	if err != nil {
		return nil, fmt.Errorf("token: %w", err)
	}
	server, client := newPipe()
	s := &frameSub{
		conn: client, pat: pat, payload: treePayload, start: p.start,
		ready: &p.ready, window: window, delays: newHistBatch(&p.delays),
	}
	if led != nil {
		s.led, s.col = led, led.column("probe")
	}
	p.subs = append(p.subs, s)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s.run()
	}()
	if err := reg.Route(server, core.Join{StreamID: treeStream, Token: tok}); err != nil {
		p.close()
		return nil, fmt.Errorf("probe route: %w", err)
	}
	p.release()
	return p, nil
}

func (t *treeRig) snapshotLeaves() []*leaf {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*leaf(nil), t.leaves...)
}

// startLeaf starts a dual-path client on the relay's hub.
func (t *treeRig) startLeaf(stable bool) *leaf {
	tok, err := core.NewToken()
	if err != nil {
		panic(err) // crypto/rand failing leaves nothing to benchmark
	}
	t.mu.Lock()
	lf := &leaf{
		id: len(t.leaves), stable: stable, pat: t.pat, window: &t.window,
		delays: newHistBatch(&t.delays), first: true, ready: make(chan struct{}), done: make(chan struct{}),
		col: -1,
	}
	if stable && t.led != nil {
		lf.led, lf.col = t.led, t.led.column(fmt.Sprintf("leaf%d", lf.id))
	}
	t.leaves = append(t.leaves, lf)
	t.mu.Unlock()
	frameEnd := int64(20 + core.FrameHeaderSize + treePayload) // stream header + one frame
	client := &core.Client{
		Paths: 2,
		Join:  &core.Join{StreamID: treeStream, Token: tok},
		Policy: core.RedialPolicy{
			Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Multiplier: 2, Jitter: 0.3,
			Seed: t.r.seed + int64(lf.id)*7919,
		},
		Receiver: core.ReceiverOptions{OnPacket: lf.onPacket},
		OnPathUp: func(path, attempt int) {
			if attempt > 0 {
				t.mu.Lock()
				t.redials++
				t.mu.Unlock()
			}
		},
		Dial: func(path int) (net.Conn, error) {
			if lf.leaving.Load() {
				return nil, fmt.Errorf("leaf %d left: %w", lf.id, &core.RejectError{Code: core.RejectStreamEnded})
			}
			server, end := newPipe()
			c := &leafConn{pipeEnd: end, need: frameEnd, dialed: time.Now()}
			if !stable || isClosed(lf.ready) {
				// Churn joins and every re-attach count toward join time;
				// the stable leaves' first joins are set-up.
				c.joined = func(d time.Duration) {
					t.mu.Lock()
					t.joins = append(t.joins, d)
					t.mu.Unlock()
				}
			}
			lf.mu.Lock()
			lf.conns[path] = c
			lf.mu.Unlock()
			t.leafWG.Add(1)
			go func() {
				defer t.leafWG.Done()
				t0 := time.Now()
				err := t.rhub.Attach(server)
				t1 := time.Now()
				t.tr.add("hub.Attach", t.parent.Load(), t0, t1)
				if err == nil {
					t.mu.Lock()
					t.attach = append(t.attach, t1.Sub(t0))
					t.mu.Unlock()
				}
			}()
			return c, nil
		},
	}
	t.leafWG.Add(1)
	go func() {
		defer t.leafWG.Done()
		defer close(lf.done)
		lf.trace, lf.err = client.Run()
	}()
	return lf
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// close tears the rig down and waits for everything it started.
func (t *treeRig) close() {
	for _, lf := range t.snapshotLeaves() {
		lf.leave()
	}
	if t.rl != nil {
		t.rl.Close()
	}
	if t.probe != nil {
		t.probe.close()
	}
	if t.reg != nil {
		t.reg.Close()
	}
	if t.ln != nil {
		_ = t.ln.Close()
	}
	t.leafWG.Wait()
	t.serve.Wait()
}

func runTree(r *run, o *outcome) error {
	tr := r.tr
	root := tr.begin("tree", 0)
	defer tr.end(root)
	pat := newPattern(r.seed, treePayload)
	var led *ledger
	if tr != nil {
		led = newLedger(int(treeMu * (r.seconds + 60)))
		tr.ledger = led
	}
	mem := startSampler(20 * time.Millisecond)
	memStopped := false
	defer func() {
		if !memStopped {
			mem.stop()
		}
	}()

	var setups, readies []float64
	var t *treeRig
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		sp := tr.begin("setup", root)
		t0 := time.Now()
		var l *ledger
		if rep == setupReps-1 {
			l = led
		}
		var err error
		if t, err = buildTree(r, pat, l, sp); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		readies = append(readies, t.readyS)
		tr.end(sp)
		if rep < setupReps-1 {
			t.close()
		}
	}
	defer func() { t.close() }()
	o.e2e["setup_s"] = metric{median(setups), "s"}

	var heldPeak int64 // owned by the probe goroutine until probes.stop
	var probes *sampler
	var prof *cpuProfile
	var allocs0 map[string]int64
	if tr != nil {
		probes = startSampler(100*time.Millisecond, func() {
			held := t.rhub.BytesHeld()
			if h := t.reg.Hub(treeStream); h != nil {
				held += h.BytesHeld()
			}
			heldPeak = max(heldPeak, held)
		})
		var err error
		if allocs0, err = allocsByLayer(); err != nil {
			return err
		}
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.attach, t.joins, t.redials = t.attach[:0], t.joins[:0], 0
	t.mu.Unlock()
	rs0 := t.rl.Stats()
	win := tr.begin("window", root)
	t.parent.Store(win)
	rt0 := readRuntime()
	cpu0 := cpuNanos()
	start := time.Now()
	t.window.Store(true)

	// The churn schedule: one event per slot, kinds in a fixed cycle.
	var churn []*leaf
	slots := int(r.window() / treeEvery)
	for k := 0; k < slots-1; k++ {
		at := start.Add(time.Duration(k+1)*treeEvery + time.Duration(t.rng.Int63n(int64(treeEvery/2))))
		time.Sleep(time.Until(at))
		switch treeCycle[k%len(treeCycle)] {
		case evJoin:
			churn = append(churn, t.startLeaf(false))
		case evSeverLeafPath:
			all := t.snapshotLeaves()
			all[t.rng.Intn(len(all))].sever(t.rng.Intn(2))
		case evSeverUpstream:
			t.ln.sever(t.rng)
		case evLeave:
			if len(churn) > 0 {
				i := t.rng.Intn(len(churn))
				churn[i].leave()
				churn = append(churn[:i], churn[i+1:]...)
			}
		}
	}
	time.Sleep(time.Until(start.Add(r.window())))
	t.window.Store(false)
	cpu1 := cpuNanos()
	rt1 := readRuntime()
	rs1 := t.rl.Stats()
	tr.end(win)

	// End the stream at the origin: every leaf still attached must now
	// receive every sequence from its join point up to the end marker.
	if err := t.reg.End(treeStream); err != nil {
		return fmt.Errorf("end stream: %w", err)
	}
	leaves := t.snapshotLeaves()
	deadline := time.After(treeEndWait)
	for _, lf := range leaves {
		select {
		case <-lf.done:
		case <-deadline:
			return fmt.Errorf("leaf %d did not finish within %v of the stream end", lf.id, treeEndWait)
		}
	}
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
	o.e2e["mem_peak_mb"] = metric{float64(mem.stop()) / 1e6, "MB"}
	memStopped = true

	var delivered, reorders, dupesPastReceiver, duplicates int64
	finished := 0
	for _, lf := range leaves {
		delivered += lf.delivered
		dupesPastReceiver += lf.dupes
		if lf.badPayload > 0 {
			o.checkf("leaf %d: %d frames failed the payload check", lf.id, lf.badPayload)
		}
		if lf.trace != nil {
			reorders += lf.trace.ReorderCount()
			duplicates += lf.trace.Duplicates
		}
		all := lf.countSeen(0, int64(len(lf.seen))*64)
		if lf.leaving.Load() {
			// A leaver's frames count as delivered operations; it has no
			// end marker to judge completeness against.
			o.attempted += all
			continue
		}
		finished++
		if lf.err != nil || lf.trace == nil || lf.trace.Expected <= 0 {
			o.checkf("leaf %d did not complete the stream: %v", lf.id, lf.err)
			continue
		}
		n := lf.trace.Expected
		got := lf.countSeen(0, n)
		o.attempted += n
		o.failed += n - got
		if got < n {
			o.checkf("leaf %d missed %d of the %d sequences from its join point to its end marker", lf.id, n-got, n)
		}
		if all > got {
			o.checkf("leaf %d received %d sequences past its end marker", lf.id, all-got)
		}
	}
	if dupesPastReceiver > 0 {
		o.checkf("%d duplicate frames delivered past core.Receiver", dupesPastReceiver)
	}
	if finished < treeLeaves {
		o.checkf("only %d leaves reached the end marker", finished)
	}
	t.probe.close()
	_, _, probeBad, probeOrder := t.probe.totals()
	if probeBad > 0 || probeOrder > 0 {
		o.checkf("origin probe: %d payload and %d order failures", probeBad, probeOrder)
	}
	if delivered == 0 {
		return errors.New("no leaf frames delivered in the window")
	}
	reportDelays(o, t.delays.snapshot())
	o.e2e["cpu_ns_per_frame"] = metric{float64(cpu1-cpu0) / float64(delivered), "ns"}
	t.mu.Lock()
	joins := append([]time.Duration(nil), t.joins...)
	attachTimes := append([]time.Duration(nil), t.attach...)
	redials := t.redials
	t.mu.Unlock()
	o.extra["join_p50_ms"] = metric{durQuantile(joins, 0.50).Seconds() * 1e3, "ms"}
	o.extra["join_p99_ms"] = metric{durQuantile(joins, 0.99).Seconds() * 1e3, "ms"}
	o.extra["join_samples"] = metric{float64(len(joins)), "count"}

	if tr != nil {
		perFrame := func(v int64) float64 { return float64(v) / float64(delivered) }
		profileBreakdown(o, cpuBy, delivered)
		o.layer["hub.attach_us_p50"] = metric{durQuantile(attachTimes, 0.50).Seconds() * 1e6, "us"}
		o.layer["hub.attach_us_p99"] = metric{durQuantile(attachTimes, 0.99).Seconds() * 1e6, "us"}
		o.layer["hub.bytes_held_peak"] = metric{float64(heldPeak), "B"}
		o.layer["relay.ready_s"] = metric{median(readies), "s"}
		var added hist
		probeCol := led.column("probe")
		for i := range led.columns {
			if i == probeCol {
				continue
			}
			for seq, a := range led.at[i] {
				if p := led.at[probeCol][seq]; a != 0 && p != 0 {
					added.record(a - p)
				}
			}
		}
		o.layer["relay.added_delay_us_p50"] = metric{added.quantile(0.50) / 1e3, "us"}
		o.layer["relay.added_delay_us_p99"] = metric{added.quantile(0.99) / 1e3, "us"}
		o.layer["relay.cpu_ns_per_frame"] = metric{perFrame(cpuBy["relay"]), "ns"}
		o.layer["relay.allocs_per_frame"] = metric{perFrame(allocs1["relay"] - allocs0["relay"]), "count"}
		o.layer["relay.reordered"] = metric{float64(rs1.Reordered - rs0.Reordered), "count"}
		o.layer["relay.late_drops"] = metric{float64(rs1.LateDrops - rs0.LateDrops), "count"}
		o.layer["relay.gap_skips"] = metric{float64(rs1.GapSkips - rs0.GapSkips), "count"}
		o.layer["relay.failovers"] = metric{float64(rs1.Failovers - rs0.Failovers), "count"}
		o.layer["core.receiver_cpu_ns_per_frame"] = metric{perFrame(cpuBy["core.receiver"]), "ns"}
		o.layer["core.reorders"] = metric{float64(reorders), "count"}
		o.layer["core.duplicates"] = metric{float64(duplicates), "count"}
		o.layer["core.redials"] = metric{float64(redials), "count"}
		o.layer["hub.cpu_ns_per_frame"] = metric{perFrame(cpuBy["hub"]), "ns"}
		o.layer["hub.allocs_per_frame"] = metric{perFrame(allocs1["hub"] - allocs0["hub"]), "count"}
		gc, sched := runtimeDelta(rt0, rt1)
		o.layer["runtime.gc_cpu_ns_per_frame"] = metric{gc * 1e9 / float64(delivered), "ns"}
		o.layer["runtime.sched_latency_us_p99"] = metric{sched * 1e6, "us"}
	}
	return nil
}
