// Command perfbench is the repository's benchmark. It runs one of four
// workloads against the real layers — the stream registry and hub, the
// edge relay over loopback TCP, the paper's core server and player, and
// the packet-level simulator plus the Markov model — checks every output
// against its own recomputation, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run is traced (spans, a per-frame ledger, CPU and allocation profiles
// of this process) and the metrics are the per-layer ones. Every layer
// is measured from outside: by timing the benchmark's own calls into its
// public functions and reading its public counters. See README.md.
//
//	go build -o perfbench . && ./perfbench -workload fanout -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	problems          []string          // failed output checks
	e2e               map[string]metric // end-to-end metrics (-trace 0)
	extra             map[string]metric // workload-specific headline figures, printed only
	layer             map[string]metric // per-layer metrics (-trace 1)
	files             []string          // trace files written
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, extra: map[string]metric{}, layer: map[string]metric{}}
}

// checkf records a failed output check.
func (o *outcome) checkf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == 20 {
		o.problems = append(o.problems, "further check failures suppressed")
	}
}

// run is one benchmark invocation's settings.
type run struct {
	seed    int64
	seconds float64
	tr      *tracer // nil unless traced
	outDir  string
}

func (r *run) window() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

type workload struct {
	name string
	fn   func(r *run, o *outcome) error
}

var workloads = []workload{
	{"fanout", runFanout},
	{"tree", runTree},
	{"direct", runDirect},
	{"model", runModel},
}

// endToEnd and perLayer are the metric names every run reports, in order;
// a workload that does not exercise a layer reports 0 for it.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"delay_p50_ms", "ms"},
	{"cpu_ns_per_frame", "ns"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"registry.route_us_p50", "us"},
	{"registry.route_us_p99", "us"},
	{"registry.cpu_ns_per_frame", "ns"},
	{"registry.allocs_per_frame", "count"},
	{"hub.cpu_ns_per_frame", "ns"},
	{"hub.allocs_per_frame", "count"},
	{"hub.frames_per_writev", "count"},
	{"hub.bytes_copied_per_frame", "B"},
	{"hub.lag_frames_p99", "count"},
	{"hub.dropped_frames", "count"},
	{"hub.bytes_held_peak", "B"},
	{"hub.attach_us_p50", "us"},
	{"hub.attach_us_p99", "us"},
	{"relay.ready_s", "s"},
	{"relay.added_delay_us_p50", "us"},
	{"relay.added_delay_us_p99", "us"},
	{"relay.cpu_ns_per_frame", "ns"},
	{"relay.allocs_per_frame", "count"},
	{"relay.reordered", "count"},
	{"relay.late_drops", "count"},
	{"relay.gap_skips", "count"},
	{"relay.failovers", "count"},
	{"core.server_cpu_ns_per_frame", "ns"},
	{"core.player_cpu_ns_per_frame", "ns"},
	{"core.late_arrivals", "count"},
	{"core.path0_share", "ratio"},
	{"core.receiver_cpu_ns_per_frame", "ns"},
	{"core.reorders", "count"},
	{"core.duplicates", "count"},
	{"core.redials", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.cpu_ms", "ms"},
	{"netsim.cpu_ms", "ms"},
	{"tcpsim.cpu_ms", "ms"},
	{"trafficgen.cpu_ms", "ms"},
	{"simstream.cpu_ms", "ms"},
	{"dmpmodel.fraction_late_ms", "ms"},
	{"dmpmodel.consumptions_per_s", "1/s"},
	{"dmpmodel.cpu_ms", "ms"},
	{"markov.cpu_ms", "ms"},
	{"tcpmodel.cpu_ms", "ms"},
	{"markov.exact_ms", "ms"},
	{"runtime.gc_cpu_ns_per_frame", "ns"},
	{"runtime.sched_latency_us_p99", "us"},
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fanout, tree, direct, model, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the measurement window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for trace files")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	// Load comes from this one process, on every core it may use.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *traceFlag == 1 && (*name == "fanout" || *name == "tree") {
		// These two report allocations per frame: sample about one
		// allocation per 512 bytes so the counts resolve without recording
		// every call stack. The simulator allocates too heavily for that.
		runtime.MemProfileRate = 512
	}

	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	var results []result
	ok := true
	for _, w := range todo {
		r := &run{seed: *seed, seconds: *seconds, outDir: *outDir}
		if *traceFlag == 1 {
			r.tr = newTracer()
		}
		o := newOutcome()
		start := time.Now()
		err := w.fn(r, o)
		if err != nil {
			o.checkf("workload error: %v", err)
		}
		if r.tr != nil && err == nil {
			files, werr := r.tr.write(r.outDir, fmt.Sprintf("%s-seed%d", w.name, r.seed))
			if werr != nil {
				o.checkf("writing trace: %v", werr)
			}
			o.files = files
		}
		res := report(w.name, o, *traceFlag == 1, time.Since(start))
		ok = ok && res.Correct
		results = append(results, res)
	}

	last := results[0]
	if len(results) > 1 {
		last = result{Correct: ok, Metrics: map[string]metric{}}
		for i, res := range results {
			last.Attempted += res.Attempted
			last.Failed += res.Failed
			for k, v := range res.Metrics {
				last.Metrics[todo[i].name+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// report prints one workload's human-readable lines and returns its
// result object.
func report(name string, o *outcome, traced bool, took time.Duration) result {
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("workload %s: attempted %d failed %d (%.1fs)\n", name, o.attempted, o.failed, took.Seconds())
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED %s: %s\n", name, p)
	}
	list, values := endToEnd, o.e2e
	if traced {
		list, values = perLayer, o.layer
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		if v.Unit != m.unit {
			res.Correct = false
			fmt.Printf("CHECK FAILED %s: metric %s in %s, declared %s\n", name, m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
		fmt.Printf("metric %s %s %.6g %s\n", name, m.name, v.Value, m.unit)
	}
	// Workload-specific figures, and in a traced run the end-to-end values
	// it measured (their gap to an untraced run is the tracing overhead).
	var extras []string
	for k := range o.extra {
		extras = append(extras, k)
	}
	if traced {
		for k := range o.e2e {
			extras = append(extras, k)
		}
	}
	sort.Strings(extras)
	for _, k := range extras {
		v, ok := o.extra[k]
		label := "extra"
		if !ok {
			v, label = o.e2e[k], "traced"
		}
		fmt.Printf("%s %s %s %.6g %s\n", label, name, k, v.Value, v.Unit)
	}
	if len(o.files) > 0 {
		fmt.Printf("trace %s: %s\n", name, strings.Join(o.files, " "))
	}
	return res
}
