package main

// largestPassing finds the largest n in [lo, hi] for which pass(n) holds,
// assuming pass is monotone: true up to some knee, false beyond it. It
// probes lo first and returns 0 when even lo fails, so a knee that has
// fallen below the bracket reads as 0, not as lo. The search stops once
// the bracket is at most step wide, so the answer is within step of the
// knee. It returns the answer and the probes it made, in order.
func largestPassing(lo, hi, step int, pass func(n int) bool) (int, []int) {
	if step < 1 {
		step = 1
	}
	probes := []int{lo}
	if !pass(lo) {
		return 0, probes
	}
	if hi <= lo {
		return lo, probes
	}
	probes = append(probes, hi)
	if pass(hi) {
		return hi, probes
	}
	for hi-lo > step {
		mid := lo + (hi-lo)/2
		probes = append(probes, mid)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}
