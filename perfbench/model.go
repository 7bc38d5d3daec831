package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dmpstream/internal/dmpmodel"
	"dmpstream/internal/exps"
	"dmpstream/internal/netsim"
	"dmpstream/internal/sim"
	"dmpstream/internal/simstream"
	"dmpstream/internal/tcpmodel"
	"dmpstream/internal/tcpsim"
	"dmpstream/internal/trafficgen"
)

// The model workload: the paper's Table 1 Setting 2-2 dumbbell (two
// independent bottlenecks of configuration 2, µ = 50 packets/s) simulated
// at packet level at the quick-fidelity scale, then the Markov model's
// Monte-Carlo f(τ) fed the path parameters the simulation measured. One
// round is modelRuns seeded simulations plus the f(τ) curve; a run repeats
// rounds, on fresh seeds, until its window is spent.
const (
	modelMu      = 50.0
	modelVideo   = 400.0 // seconds of video per simulation
	modelWarmup  = 30.0  // background traffic reaches steady state first
	modelDrain   = 120.0 // simulated time after the video for stragglers
	modelRuns    = 3
	modelBudget  = 400_000 // Monte-Carlo consumptions per f(τ)
	modelStepSec = 0.5     // simulated seconds per timed step
	// Set-ups timed before the first round, besides each simulation's own.
	modelSetupReps = 15
)

var modelTaus = []float64{4, 5, 6, 7, 8, 9, 10}

// linkConfig is Table 1's configuration 2, as the repository's own
// validation experiments use it.
var linkConfig = exps.Table1Configs[1]

// bottleneck is one path: a drop-tail bottleneck link with its
// background FTP and HTTP load.
type bottleneck struct {
	s     *sim.Simulator
	link  *netsim.Link
	demux map[netsim.FlowID]netsim.Sink
	next  *netsim.FlowID
}

func newBottleneck(s *sim.Simulator, next *netsim.FlowID) *bottleneck {
	b := &bottleneck{s: s, demux: map[netsim.FlowID]netsim.Sink{}, next: next}
	b.link = netsim.NewLink(s, "bneck", linkConfig.Mbps, sim.Seconds(linkConfig.DelayMs/1e3), linkConfig.BufPkts,
		netsim.SinkFunc(func(pkt *netsim.Packet) {
			if d, ok := b.demux[pkt.Flow]; ok {
				d.Deliver(pkt)
			}
		}))
	return b
}

// attach wires a connection through the bottleneck with 100 Mbps, 10 ms
// access links on each side and an uncongested reverse path.
func (b *bottleneck) attach(id netsim.FlowID, c *tcpsim.Conn) {
	head := netsim.NewLink(b.s, "head", 100, 10*sim.Millisecond, 1<<18, nil)
	tail := netsim.NewLink(b.s, "tail", 100, 10*sim.Millisecond, 1<<18, nil)
	b.demux[id] = netsim.NewPath(c.Rcv, tail)
	rev := netsim.NewLink(b.s, "rev", 100, sim.Seconds(linkConfig.DelayMs/1e3)+20*sim.Millisecond, 1<<18, nil)
	c.Wire(netsim.NewPath(b.link, head), netsim.NewPath(c.Snd, rev))
}

func (b *bottleneck) populate() {
	for i := 0; i < linkConfig.FTPFlows; i++ {
		id := *b.next
		*b.next++
		f := trafficgen.NewFTP(b.s, id, tcpsim.Config{})
		b.attach(id, f.Conn)
		f.Start()
	}
	for i := 0; i < linkConfig.HTTPFlows; i++ {
		h := trafficgen.NewHTTP(b.s, trafficgen.HTTPConfig{}, func() *tcpsim.Conn {
			id := *b.next
			*b.next++
			c := tcpsim.NewConn(b.s, id, tcpsim.Config{})
			b.attach(id, c)
			return c
		})
		h.Start()
	}
}

// simResult is one simulation's outputs and costs.
type simResult struct {
	late    []float64 // playback-order late fraction per modelTaus entry
	params  [2]tcpmodel.Params
	frames  int64 // video packets generated
	events  uint64
	runTime time.Duration // wall time inside Simulator.Run after set-up
	setup   time.Duration // topology build plus warm-up
	steps   []time.Duration
}

// build sets up one seeded Setting 2-2 topology, with a video flow on
// each bottleneck, and runs the background traffic through its warm-up.
func build(seed int64) (*sim.Simulator, []*tcpsim.Conn) {
	s := sim.New(seed)
	var next netsim.FlowID = 100
	paths := [2]*bottleneck{newBottleneck(s, &next), newBottleneck(s, &next)}
	paths[0].populate()
	paths[1].populate()
	var conns []*tcpsim.Conn
	for k := 0; k < 2; k++ {
		c := tcpsim.NewConn(s, netsim.FlowID(k+1), tcpsim.Config{})
		paths[k].attach(netsim.FlowID(k+1), c)
		conns = append(conns, c)
	}
	s.Run(sim.Seconds(modelWarmup))
	return s, conns
}

// simulate runs one seeded Setting 2-2 simulation.
func simulate(seed int64) (*simResult, error) {
	t0 := time.Now()
	s, conns := build(seed)
	res := &simResult{setup: time.Since(t0)}

	stream := simstream.New(s, simstream.VideoConfig{Mu: modelMu, Duration: sim.Seconds(modelVideo)}, conns)
	stream.Start()
	ev0 := s.EventsRun()
	end := modelWarmup + modelVideo + modelDrain
	res.steps = make([]time.Duration, 0, int(end/modelStepSec))
	for t := modelWarmup + modelStepSec; t <= end+1e-9; t += modelStepSec {
		st := time.Now()
		s.Run(sim.Seconds(t))
		d := time.Since(st)
		res.runTime += d
		res.steps = append(res.steps, d)
	}
	res.events = s.EventsRun() - ev0
	res.frames = stream.Generated()
	for _, tau := range modelTaus {
		pb, _ := stream.LateFraction(tau)
		res.late = append(res.late, pb)
	}
	for k := 0; k < 2; k++ {
		snd := conns[k].Snd.Stats()
		if snd.Sent == 0 || snd.RTTSamples == 0 {
			return nil, fmt.Errorf("video flow %d sent %d packets with %d RTT samples", k, snd.Sent, snd.RTTSamples)
		}
		// The model's p is the loss-event rate (first loss of a round),
		// as in the repository's own validation experiments.
		p := float64(snd.FastRetransmits+snd.Timeouts) / float64(snd.Sent)
		if p <= 0 {
			p = 1e-4
		}
		res.params[k] = tcpmodel.Params{P: p, R: snd.MeanRTT().Seconds(), TO: float64(snd.MeanRTO()) / float64(snd.MeanRTT())}
	}
	return res, nil
}

// meanCI is the sample mean with its normal-approximation 95% half-width.
func meanCI(xs []float64) (mean, ci float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, 1.96 * math.Sqrt(ss/float64(len(xs)-1)) / math.Sqrt(float64(len(xs)))
}

func runModel(r *run, o *outcome) error {
	tr := r.tr
	root := tr.begin("model", 0)
	defer tr.end(root)
	mem := startSampler(20 * time.Millisecond)
	memStopped := false
	defer func() {
		if !memStopped {
			mem.stop()
		}
	}()

	// Set-ups alone, on seeds of their own, so that setup_s is the median
	// of enough samples to be steady; each simulation's set-up adds one.
	var setups []float64
	for i := 0; i < modelSetupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap
		sp := tr.begin("setup", root)
		t0 := time.Now()
		build(-r.seed*1_000_003 - int64(i))
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
	}

	var prof *cpuProfile
	if tr != nil {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	var (
		steps                hist // every step of every simulation
		simWall, solveWall   []float64
		solveCalls           []float64
		frames, consumptions int64
		events               uint64
		runTime, solveTime   time.Duration
		rounds, misses       int
	)
	cpu0 := cpuNanos()
	start := time.Now()
	for rounds == 0 || time.Since(start) < r.window() {
		round := tr.begin("round", root)
		late := make([][]float64, len(modelTaus))
		var params [2]tcpmodel.Params
		simStart := time.Now()
		for i := 0; i < modelRuns; i++ {
			seed := r.seed*1_000_003 + int64(rounds*modelRuns+i)*101
			sp := tr.begin("simulate", round)
			res, err := simulate(seed)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("simulation seed %d: %w", seed, err)
			}
			o.attempted++
			setups = append(setups, res.setup.Seconds())
			for _, d := range res.steps {
				steps.record(d.Nanoseconds())
			}
			frames += res.frames
			events += res.events
			runTime += res.runTime
			for j := range modelTaus {
				late[j] = append(late[j], res.late[j])
			}
			for k := range params {
				params[k].P += res.params[k].P / modelRuns
				params[k].R += res.params[k].R / modelRuns
				params[k].TO += res.params[k].TO / modelRuns
			}
		}
		simWall = append(simWall, time.Since(simStart).Seconds())

		m := dmpmodel.Model{Paths: params[:], Mu: modelMu}
		solveStart := time.Now()
		prev := math.Inf(1)
		prevCI := 0.0
		for j, tau := range modelTaus {
			sp := tr.begin("dmpmodel.FractionLate", round)
			t0 := time.Now()
			res, err := m.FractionLate(tau, dmpmodel.Options{Seed: r.seed + 7, MaxConsumptions: modelBudget})
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("f(τ=%v): %w", tau, err)
			}
			o.attempted++
			solveCalls = append(solveCalls, d.Seconds()*1e3)
			solveTime += d
			consumptions += res.Consumptions
			// The paper's acceptance criterion: the model lies within the
			// simulation's 95% confidence interval, or within 10x of its
			// mean (both small counts as agreement when the simulation
			// saw no late packet at all). At this scale it misses on some
			// seeds, so a miss is counted and printed, not failed.
			mean, ci := meanCI(late[j])
			ratio := 0.0
			if mean > 0 {
				ratio = res.F / mean
			}
			inCI := res.F >= mean-ci && res.F <= mean+ci
			within10 := ratio > 0.1 && ratio < 10
			bothSmall := mean == 0 && res.F < 1e-3
			if !inCI && !within10 && !bothSmall {
				misses++
				fmt.Printf("criterion-miss model round %d tau=%v: model f=%.3g, sim mean %.3g ± %.3g\n", rounds, tau, res.F, mean, ci)
			}
			// f(τ) must not increase with τ beyond Monte-Carlo noise.
			if res.F > prev+3*(res.CI95+prevCI)+0.002 {
				o.checkf("round %d: f(τ=%v)=%.4g rose above f at the previous τ (%.4g)", rounds, tau, res.F, prev)
			}
			prev, prevCI = res.F, res.CI95
		}
		solveWall = append(solveWall, time.Since(solveStart).Seconds())
		tr.end(round)
		rounds++
	}
	cpu1 := cpuNanos()
	var cpuBy map[string]int64
	if tr != nil {
		var err error
		if cpuBy, err = prof.stop(); err != nil {
			return err
		}
	}

	// Cross-check, outside the timed rounds: Monte-Carlo against the exact
	// stationary solution of a truncated chain small enough to solve.
	exactSpan := tr.begin("dmpmodel.ExactFractionLate", root)
	exactMs, err := crossCheck(o)
	tr.end(exactSpan)
	if err != nil {
		return err
	}
	o.attempted++
	o.e2e["mem_peak_mb"] = metric{float64(mem.stop()) / 1e6, "MB"}
	memStopped = true

	o.e2e["setup_s"] = metric{median(setups), "s"}
	reportDelays(o, &steps)
	o.e2e["cpu_ns_per_frame"] = metric{float64(cpu1-cpu0) / float64(frames), "ns"}
	o.extra["sim_s"] = metric{median(simWall), "s"}
	o.extra["solve_s"] = metric{median(solveWall), "s"}
	o.extra["rounds"] = metric{float64(rounds), "count"}
	o.extra["criterion_misses"] = metric{float64(misses), "count"}

	if tr != nil {
		profileBreakdown(o, cpuBy, frames)
		o.layer["sim.events_per_s"] = metric{float64(events) / runTime.Seconds(), "1/s"}
		for _, mod := range []string{"sim", "netsim", "tcpsim", "trafficgen", "simstream", "dmpmodel", "markov", "tcpmodel"} {
			o.layer[mod+".cpu_ms"] = metric{float64(cpuBy[mod]) / 1e6 / float64(rounds), "ms"}
		}
		o.layer["dmpmodel.fraction_late_ms"] = metric{median(solveCalls), "ms"}
		o.layer["dmpmodel.consumptions_per_s"] = metric{float64(consumptions) / solveTime.Seconds(), "1/s"}
		o.layer["markov.exact_ms"] = metric{exactMs, "ms"}
	}
	return nil
}

// crossCheck compares the Monte-Carlo estimator with
// dmpmodel.ExactFractionLate on a truncated instance (FloorN) whose
// composed chain is small enough to solve exactly. The instance and the
// sampling seed are fixed, so the verdict does not depend on -seed. It
// returns the exact solve's wall time in milliseconds.
func crossCheck(o *outcome) (float64, error) {
	p := tcpmodel.Params{P: 0.1, R: 0.2, TO: 2, Wmax: 4}
	sigma, err := dmpmodel.Sigma(p)
	if err != nil {
		return 0, fmt.Errorf("sigma: %w", err)
	}
	mu := 2 * sigma / 1.3
	const nmax, floor = 20, -80
	t0 := time.Now()
	exact, err := dmpmodel.ExactFractionLate(p, p, mu, nmax, floor, 2_000_000)
	exactMs := time.Since(t0).Seconds() * 1e3
	if err != nil {
		return 0, fmt.Errorf("exact solution: %w", err)
	}
	fl := int64(floor)
	m := dmpmodel.Model{Paths: []tcpmodel.Params{p, p}, Mu: mu}
	res, err := m.FractionLate(float64(nmax)/mu, dmpmodel.Options{Seed: 1, MaxConsumptions: 1_000_000, FloorN: &fl})
	if err != nil {
		return 0, fmt.Errorf("truncated Monte-Carlo: %w", err)
	}
	fmt.Printf("crosscheck model exact=%.5f mc=%.5f ci95=%.5f\n", exact, res.F, res.CI95)
	if math.Abs(res.F-exact) > res.CI95 {
		o.checkf("Monte-Carlo f=%.5f ± %.5f disagrees with the exact f=%.5f", res.F, res.CI95, exact)
	}
	return exactMs, nil
}
