package main

import (
	"math"
	"math/bits"
	"sync"
)

// subBits sets the histogram's resolution: each power of two is split
// into 2^subBits equal-width buckets, so a bucket spans at most 1/64
// (1.6%) of its lower edge and the midpoint a quantile reports is within
// 0.8% of any value in it — far finer than the regression bounds in
// BENCHMARK.json.
const subBits = 6

const (
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: values below subCount
	// get one exact bucket each, every higher octave subCount buckets.
	numBuckets = (64-subBits)*subCount + subCount
)

// hist is a log-linear histogram of non-negative integers (nanoseconds,
// or any other count). It is not safe for concurrent use; see sharedHist.
type hist struct {
	n      int64
	counts [numBuckets]int64
}

// bucketOf maps v to its bucket index.
func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	sub := int(uint64(v)>>uint(e-subBits)) & (subCount - 1)
	return (e-subBits+1)*subCount + sub
}

// bucketBounds returns bucket b's inclusive lower edge and its width.
func bucketBounds(b int) (lo, width int64) {
	if b < subCount {
		return int64(b), 1
	}
	e := b/subCount - 1 + subBits
	sub := int64(b % subCount)
	width = int64(1) << uint(e-subBits)
	return (subCount + sub) * width, width
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the nearest-rank q-quantile: the value of rank
// ceil(q·n) among the n recorded values, reported as the midpoint of its
// bucket. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, w := bucketBounds(b)
			return float64(lo) + float64(w-1)/2
		}
	}
	lo, w := bucketBounds(numBuckets - 1)
	return float64(lo) + float64(w-1)/2
}

// sharedHist is a histogram fed by many goroutines under a lock.
type sharedHist struct {
	mu sync.Mutex
	h  hist // guarded by mu
}

// snapshot copies the shared histogram out.
func (s *sharedHist) snapshot() *hist {
	out := new(hist)
	s.mu.Lock()
	*out = s.h
	s.mu.Unlock()
	return out
}

// batchLen is how many values a producer buffers before taking the lock.
const batchLen = 256

// histBatch is one producer's buffer in front of a sharedHist, so the
// per-value cost is a slice append and the lock is taken once per batch.
type histBatch struct {
	dst  *sharedHist
	vals []int64
}

func newHistBatch(dst *sharedHist) *histBatch {
	return &histBatch{dst: dst, vals: make([]int64, 0, batchLen)}
}

func (b *histBatch) add(v int64) {
	b.vals = append(b.vals, v)
	if len(b.vals) == batchLen {
		b.flush()
	}
}

func (b *histBatch) flush() {
	if len(b.vals) == 0 {
		return
	}
	b.dst.mu.Lock()
	for _, v := range b.vals {
		b.dst.h.record(v)
	}
	b.dst.mu.Unlock()
	b.vals = b.vals[:0]
}
