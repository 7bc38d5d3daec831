package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"dmpstream/internal/core"
)

// The direct workload is the paper's scheme itself: one core.Server
// session streaming to one subscriber over two loopback TCP paths,
// played out in real time by core.Play at a fixed startup delay τ.
// Payloads are small, so per-packet cost dominates.
const (
	directMu        = 4000 // packets/s
	directPayload   = 64   // bytes
	directTau       = time.Second
	directSetupReps = 101
	directPaths     = 2
)

// playerConn wraps one of the player's path connections. It follows the
// byte stream core.Play reads — the 20-byte stream header, then fixed-size
// frames — and stamps each frame's arrival at the player boundary,
// checking its payload and the path's sequence order.
type playerConn struct {
	net.Conn
	pat     *pattern
	frame   []byte
	have    int
	hdrLeft int
	window  *atomic.Bool
	delays  *histBatch
	led     *ledger
	col     int

	// Owned by the player's reader goroutine for this path; read after
	// Play returns.
	seen                            bool
	last                            uint32
	delivered, badPayload, badOrder int64
}

func (c *playerConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.observe(b[:n], time.Now().UnixNano())
	}
	return n, err
}

func (c *playerConn) observe(p []byte, now int64) {
	for len(p) > 0 {
		if c.hdrLeft > 0 {
			k := min(c.hdrLeft, len(p))
			c.hdrLeft -= k
			p = p[k:]
			continue
		}
		k := copy(c.frame[c.have:], p)
		c.have += k
		p = p[k:]
		if c.have < len(c.frame) {
			return
		}
		c.have = 0
		pkt, gen, err := core.ParseFrameHeader(c.frame)
		if err != nil || pkt == core.EndMarker {
			continue
		}
		seq, ok := c.pat.check(c.frame[core.FrameHeaderSize:])
		if !ok || seq != uint64(pkt) {
			c.badPayload++
		}
		if c.seen && pkt <= c.last {
			c.badOrder++
		}
		c.seen = true
		c.last = pkt
		if c.window.Load() {
			c.delivered++
			c.delays.add(now - gen)
			c.led.note(c.col, seq, gen, now)
		}
	}
}

// directRig is one connected session.
type directRig struct {
	srv   *core.Server
	sess  *core.Session
	conns []*playerConn
	srvs  []net.Conn
}

// directSetup connects the paths and starts the session: listen, dial
// and accept each path, build the server, start the session and add the
// paths.
func directSetup(pat *pattern, count int64, window *atomic.Bool, delays *sharedHist, led *ledger) (*directRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	d := &directRig{}
	for k := 0; k < directPaths; k++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial path %d: %w", k, err)
		}
		pc := &playerConn{
			Conn: c, pat: pat, frame: make([]byte, core.FrameHeaderSize+directPayload), hdrLeft: 20,
			window: window, delays: newHistBatch(delays), col: -1,
		}
		if led != nil {
			// One column for both paths: each frame arrives on exactly one.
			pc.led, pc.col = led, led.column("player")
		}
		d.conns = append(d.conns, pc)
		s, err := ln.Accept()
		if err != nil {
			d.close()
			return nil, fmt.Errorf("accept path %d: %w", k, err)
		}
		d.srvs = append(d.srvs, s)
	}
	d.srv, err = core.NewServer(core.Config{Mu: directMu, PayloadSize: directPayload, Count: count, Fill: pat.fill})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("server: %w", err)
	}
	d.sess = d.srv.Start()
	for _, s := range d.srvs {
		d.sess.AddPath(s)
	}
	return d, nil
}

// close stops the session and hangs up every path.
func (d *directRig) close() {
	if d.srv != nil {
		d.srv.Stop()
	}
	for _, c := range d.conns {
		_ = c.Close()
	}
	for _, s := range d.srvs {
		_ = s.Close()
	}
	if d.sess != nil {
		_, _ = d.sess.Wait()
	}
}

func runDirect(r *run, o *outcome) error {
	tr := r.tr
	root := tr.begin("direct", 0)
	defer tr.end(root)
	pat := newPattern(r.seed, directPayload)
	count := int64(directMu * r.seconds)
	var led *ledger
	if tr != nil {
		led = newLedger(int(count))
		tr.ledger = led
	}
	mem := startSampler(20 * time.Millisecond)
	memStopped := false
	defer func() {
		if !memStopped {
			mem.stop()
		}
	}()

	var window atomic.Bool
	var delays sharedHist
	var setups []float64
	var d *directRig
	for rep := 0; rep < directSetupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		sp := tr.begin("setup", root)
		t0 := time.Now()
		var l *ledger
		if rep == directSetupReps-1 {
			l = led
		}
		var err error
		if d, err = directSetup(pat, count, &window, &delays, l); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		if rep < directSetupReps-1 {
			d.close()
		}
	}
	o.e2e["setup_s"] = metric{median(setups), "s"}

	var prof *cpuProfile
	if tr != nil {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			d.close()
			return err
		}
	}
	conns := make([]net.Conn, len(d.conns))
	for i, c := range d.conns {
		conns[i] = c
	}
	window.Store(true)
	win := tr.begin("window", root)
	cpu0 := cpuNanos()
	play := tr.begin("core.Play", win)
	stats, playErr := core.Play(conns, core.PlayerConfig{StartupDelay: directTau})
	tr.end(play)
	cpu1 := cpuNanos()
	window.Store(false)
	tr.end(win)
	_, srvErr := d.sess.Wait()
	pathCounts := d.srv.PathCounts()
	d.close()
	var cpuBy map[string]int64
	if tr != nil {
		var err error
		if cpuBy, err = prof.stop(); err != nil {
			return err
		}
	}
	o.e2e["mem_peak_mb"] = metric{float64(mem.stop()) / 1e6, "MB"}
	memStopped = true

	if playErr != nil {
		o.checkf("play: %v", playErr)
	}
	if srvErr != nil {
		o.checkf("server session: %v", srvErr)
	}
	var delivered, badPayload, badOrder int64
	for _, c := range d.conns {
		c.delays.flush()
		delivered += c.delivered
		badPayload += c.badPayload
		badOrder += c.badOrder
	}
	o.attempted, o.failed = stats.Expected, stats.Glitches
	if stats.Expected != count || stats.Played != stats.Expected || stats.Glitches != 0 {
		o.checkf("player: played %d of %d expected (%d generated), %d glitches",
			stats.Played, stats.Expected, count, stats.Glitches)
	}
	if badPayload > 0 || badOrder > 0 {
		o.checkf("player boundary: %d payload and %d per-path order failures", badPayload, badOrder)
	}
	if delivered == 0 {
		return errors.New("no frames reached the player")
	}
	reportDelays(o, delays.snapshot())
	o.e2e["cpu_ns_per_frame"] = metric{float64(cpu1-cpu0) / float64(delivered), "ns"}

	if tr != nil {
		perFrame := func(v int64) float64 { return float64(v) / float64(delivered) }
		profileBreakdown(o, cpuBy, delivered)
		o.layer["core.server_cpu_ns_per_frame"] = metric{perFrame(cpuBy["core.server"]), "ns"}
		o.layer["core.player_cpu_ns_per_frame"] = metric{perFrame(cpuBy["core.player"]), "ns"}
		o.layer["core.late_arrivals"] = metric{float64(stats.LateArrivals), "count"}
		var total int64
		for _, n := range pathCounts {
			total += n
		}
		if total > 0 {
			o.layer["core.path0_share"] = metric{float64(pathCounts[0]) / float64(total), "ratio"}
		}
	}
	return nil
}
