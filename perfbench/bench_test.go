package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantilesMatchSortedSample checks every reported quantile
// against the nearest-rank value of the sorted sample: it must lie in the
// same bucket, hence within the histogram's 1/64 relative resolution.
func TestHistQuantilesMatchSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(5_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 12)) },
		"small":     func() int64 { return rng.Int63n(100) },
		"bimodal": func() int64 {
			if rng.Intn(100) == 0 {
				return 150_000_000 + rng.Int63n(10_000_000)
			}
			return 2_000_000 + rng.Int63n(500_000)
		},
	}
	for name, draw := range samples {
		for _, n := range []int{1, 2, 39, 1000, 100_000} {
			var h hist
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = draw()
				h.record(vals[i])
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				want := vals[rank-1]
				got := h.quantile(q)
				lo, w := bucketBounds(bucketOf(want))
				if got < float64(lo) || got > float64(lo+w-1) {
					t.Fatalf("%s n=%d q=%v: got %v, sorted sample gives %d (bucket [%d,%d])",
						name, n, q, got, want, lo, lo+w-1)
				}
				if want > 0 && math.Abs(got-float64(want))/float64(want) > 1.0/64 {
					t.Fatalf("%s n=%d q=%v: got %v, want %d: beyond 1/64 resolution", name, n, q, got, want)
				}
			}
		}
	}
}

// TestHistBucketsTile checks that consecutive buckets tile the integers
// with no gap or overlap, and that each value maps into its own bucket.
func TestHistBucketsTile(t *testing.T) {
	next := int64(0)
	for b := 0; b < numBuckets-1; b++ {
		lo, w := bucketBounds(b)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", b, lo, next)
		}
		if w > 1 && float64(w)/float64(lo) > 1.0/64+1e-12 {
			t.Fatalf("bucket %d width %d over lower edge %d exceeds 1/64", b, w, lo)
		}
		for _, v := range []int64{lo, lo + w - 1} {
			if got := bucketOf(v); got != b {
				t.Fatalf("value %d maps to bucket %d, want %d", v, got, b)
			}
		}
		next = lo + w
		if next <= 0 { // past int64
			break
		}
	}
}

func TestSharedHistMergesBatches(t *testing.T) {
	var s sharedHist
	b := newHistBatch(&s)
	for i := int64(0); i < 1000; i++ {
		b.add(i)
	}
	b.flush()
	if got := s.snapshot().n; got != 1000 {
		t.Fatalf("shared histogram holds %d values, want 1000", got)
	}
}

// TestLargestPassingFindsKnee runs the capacity bisection against a
// synthetic monotone oracle for every knee in a range, including knees
// below lo, at lo, inside the bracket and above hi.
func TestLargestPassingFindsKnee(t *testing.T) {
	const lo, hi = 500, 4000
	for _, step := range []int{1, 25, 100} {
		for knee := lo - 200; knee <= hi+200; knee += 7 {
			got, probes := largestPassing(lo, hi, step, func(n int) bool { return n <= knee })
			want := min(knee, hi)
			if knee < lo {
				want = 0
			}
			if got > want || want-got > step {
				t.Fatalf("step %d knee %d: got %d, want within %d below %d", step, knee, got, step, want)
			}
			if len(probes) > 3+int(math.Ceil(math.Log2(float64(hi-lo)/float64(step)))) {
				t.Fatalf("step %d knee %d: %d probes is more than a bisection needs", step, knee, len(probes))
			}
			if probes[0] != lo {
				t.Fatalf("step %d knee %d: first probe %d, want lo = %d", step, knee, probes[0], lo)
			}
		}
	}
	// A failing lo is probed, not assumed: nothing in the bracket passes.
	if got, probes := largestPassing(lo, hi, 50, func(int) bool { return false }); got != 0 || len(probes) != 1 {
		t.Fatalf("all-failing oracle: got %d after probes %v, want 0 after probing lo only", got, probes)
	}
}

func TestPatternRoundTrip(t *testing.T) {
	p := newPattern(42, 1000)
	buf := make([]byte, 1000)
	for _, seq := range []uint32{0, 1, 77, 1 << 31} {
		p.fill(seq, buf)
		got, ok := p.check(buf)
		if !ok || got != uint64(seq) {
			t.Fatalf("seq %d: check gave %d ok=%v", seq, got, ok)
		}
		buf[999] ^= 1
		if _, ok := p.check(buf); ok {
			t.Fatalf("seq %d: a flipped byte passed the check", seq)
		}
	}
	if q := newPattern(43, 1000); q.words[1] == p.words[1] {
		t.Fatalf("patterns for different seeds coincide")
	}
}
