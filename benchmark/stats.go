package main

import (
	"math"
	"slices"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// a p99 over 300 samples is the fourth-largest value and mostly noise.
const tailSamples = 10

// percentile is the nearest-rank p-quantile (0 < p <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// median of a float slice (mean of the middle two when even); 0 if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// supportedPercentile lowers want to the highest percentile that still
// keeps tailSamples samples beyond it in n samples (never below the
// median).
func supportedPercentile(n int, want float64) float64 {
	if float64(n)*(1-want) >= tailSamples {
		return want
	}
	if n <= 2*tailSamples {
		return 0.5
	}
	return 1 - tailSamples/float64(n)
}

// subWindowPercentile is the tail estimator for the serving windows: cut
// the window into sub-windows, take the p-quantile of each, report the
// median of those. One stall then moves one sub-window's figure, not the
// result. It uses the largest count <= maxSub for which EVERY sub-window
// keeps tailSamples samples beyond p; used is that count, 0 when even
// the whole window is too thin (the plain quantile is returned then, and
// the caller must not present it as supported).
//
// at[i] is sample i's start offset into the window, dur[i] its latency.
func subWindowPercentile(at, dur []int64, window int64, maxSub int, p float64) (value int64, used int) {
	for n := maxSub; n >= 1; n-- {
		buckets := make([][]int64, n)
		for i, t := range at {
			b := int(t * int64(n) / window)
			buckets[min(max(b, 0), n-1)] = append(buckets[min(max(b, 0), n-1)], dur[i])
		}
		ok := true
		qs := make([]float64, n)
		for b, samples := range buckets {
			if float64(len(samples))*(1-p) < tailSamples {
				ok = false
				break
			}
			slices.Sort(samples)
			qs[b] = float64(percentile(samples, p))
		}
		if ok {
			return int64(median(qs)), n
		}
	}
	return percentile(sortedCopy(dur), p), 0
}

// spread is the interquartile range over the median, the run-to-run
// spread the bounds are derived from and -compare tests against.
// Quartiles follow Python's statistics.quantiles(v, n=4) (exclusive
// method), which the acceptance driver uses. Needs >= 2 values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
