package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuNanos returns this process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

const (
	heapLiveMetric = "/gc/heap/live:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	schedLatMetric = "/sched/latencies:seconds"
)

// sampler polls the live Go heap (as marked by the latest garbage
// collection, so the figure does not depend on how much garbage awaits
// the next one) every period and keeps the peak, and
// runs any extra probes the workload registers (hub byte counts, lags)
// on the same tick. stop ends the goroutine and waits for it.
type sampler struct {
	period time.Duration
	probes []func()

	mu   sync.Mutex
	peak uint64 // guarded by mu

	stopCh chan struct{}
	done   chan struct{}
}

func startSampler(period time.Duration, probes ...func()) *sampler {
	s := &sampler{period: period, probes: probes, stopCh: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	sample := []metrics.Sample{{Name: heapLiveMetric}}
	t := time.NewTicker(s.period)
	defer t.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
			s.mu.Lock()
			if v.Uint64() > s.peak {
				s.peak = v.Uint64()
			}
			s.mu.Unlock()
		}
		for _, p := range s.probes {
			p()
		}
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
	}
}

// stop ends sampling and returns the peak live heap, in bytes. A final
// collection measures the live heap as it stands at the end, so a heap
// that grew since the last cycle is counted whatever the GC's timing.
func (s *sampler) stop() uint64 {
	close(s.stopCh)
	<-s.done
	runtime.GC()
	sample := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(sample)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.peak {
		s.peak = v.Uint64()
	}
	return s.peak
}

// runtimeSnap is a reading of the runtime counters a traced run reports.
type runtimeSnap struct {
	gcCPU   float64
	buckets []float64
	counts  []uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: schedLatMetric}}
	metrics.Read(s)
	var out runtimeSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		out.buckets = h.Buckets
		out.counts = append([]uint64(nil), h.Counts...)
	}
	return out
}

// runtimeDelta returns the GC CPU seconds and the p99 scheduling latency
// (seconds, the upper edge of the bucket holding it) between two
// readings.
func runtimeDelta(a, b runtimeSnap) (gcCPU, schedP99 float64) {
	gcCPU = b.gcCPU - a.gcCPU
	if len(a.counts) != len(b.counts) || len(b.counts) == 0 {
		return gcCPU, 0
	}
	d := make([]uint64, len(b.counts))
	var total uint64
	for i := range d {
		d[i] = b.counts[i] - a.counts[i]
		total += d[i]
	}
	if total == 0 {
		return gcCPU, 0
	}
	rank := (total*99 + 99) / 100
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			if hi := b.buckets[i+1]; !math.IsInf(hi, 1) {
				return gcCPU, hi
			}
			return gcCPU, b.buckets[i]
		}
	}
	return gcCPU, 0
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durQuantile is a nearest-rank quantile over durations.
func durQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
