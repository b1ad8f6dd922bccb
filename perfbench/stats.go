package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer than ten samples is one outlier away from a
// different number.
const minBeyond = 10

// tail is one latency percentile together with the evidence behind it.
type tail struct {
	Value  float64 // ms; +Inf when the sample at that rank is a failed operation
	Pct    float64 // the percentile actually reported (nearest rank / n × 100)
	Target float64 // the percentile the workload asked for
	N      int     // samples
	Beyond int     // samples strictly after the reported rank
}

// tailOf reports the target percentile of samples by nearest rank, lowered
// to the highest rank that still leaves minBeyond samples beyond it when n
// is too small to support the target. samples need not be sorted; a
// failed operation is recorded as +Inf so it misses every latency limit.
// With n ≤ minBeyond no rank qualifies and the median is reported.
func tailOf(samples []float64, target float64) tail {
	s := sortedCopy(samples)
	n := len(s)
	t := tail{Target: target, N: n}
	if n == 0 {
		return t
	}
	rank := int(math.Ceil(target / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < (n+1)/2 {
		rank = (n + 1) / 2
	}
	t.Value = s[rank-1]
	t.Pct = 100 * float64(rank) / float64(n)
	t.Beyond = n - rank
	return t
}

// median returns the middle sample (mean of the two middle ones for even
// n), or 0 for no samples.
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank percentile q of samples without the
// minBeyond guard — for per-layer figures, where the sample count is
// printed next to the value.
func percentile(samples []float64, q float64) float64 {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}
