package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {0.01, 10}, {1, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, keep float64
	}{
		{100000, 0.99, 0.99}, // plenty beyond
		{1000, 0.99, 0.99},   // exactly ten beyond
		{999, 0.99, 1 - 10.0/999},
		{200, 0.9, 0.9},
		{70, 0.9, 1 - 10.0/70}, // ~p85.7: ten of seventy beyond
		{20, 0.9, 0.5},
		{3, 0.99, 0.5},
	} {
		if got := supportedPercentile(c.n, c.want); math.Abs(got-c.keep) > 1e-12 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.keep)
		}
	}
}

// window builds n samples spread evenly over a window of length ns, all
// of latency base except that every sample starting inside [lo, hi) has
// latency slow.
func evenSamples(n int, length, base, slow, lo, hi int64) (at, dur []int64) {
	for i := 0; i < n; i++ {
		t := int64(i) * length / int64(n)
		at = append(at, t)
		if t >= lo && t < hi {
			dur = append(dur, slow)
		} else {
			dur = append(dur, base)
		}
	}
	return at, dur
}

func TestSubWindowPercentile(t *testing.T) {
	const length = 60_000_000 // divisible by every sample and sub-window count below
	// 20 000 samples: each of 10 sub-windows holds 2000, 20 beyond p99.
	// One sub-window is entirely slow (a stall): the plain p99 is the
	// stall, the median of sub-window p99s is not.
	at, dur := evenSamples(20000, length, 100, 9000, 3*length/10, 4*length/10)
	got, used := subWindowPercentile(at, dur, length, 10, 0.99)
	if used != 10 || got != 100 {
		t.Errorf("stalled sub-window: got %d over %d sub-windows, want 100 over 10", got, used)
	}
	if plain := percentile(sortedCopy(dur), 0.99); plain != 9000 {
		t.Errorf("plain p99 = %d, want the stall (9000)", plain)
	}
	// 6000 samples: 600 per tenth is 6 beyond p99 — too thin. The largest
	// count that keeps ten beyond in every sub-window is 6 (1000 each).
	at, dur = evenSamples(6000, length, 100, 100, 0, 0)
	if _, used := subWindowPercentile(at, dur, length, 10, 0.99); used != 6 {
		t.Errorf("6000 samples used %d sub-windows, want 6", used)
	}
	// 999 samples cannot support a p99 at all: used is 0 and the plain
	// quantile comes back for the caller to refuse or flag.
	at, dur = evenSamples(999, length, 100, 100, 0, 0)
	if got, used := subWindowPercentile(at, dur, length, 10, 0.99); used != 0 || got != 100 {
		t.Errorf("999 samples: got %d, used %d; want 100, 0", got, used)
	}
	// Uneven arrival: everything in the first half. Two sub-windows would
	// leave the second empty, so one is used.
	at, dur = evenSamples(4000, length/2, 100, 100, 0, 0)
	if _, used := subWindowPercentile(at, dur, length, 10, 0.99); used != 1 {
		t.Errorf("front-loaded samples used %d sub-windows, want 1", used)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 9, 4, 8, 5, 7, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if got, want := spread([]float64{40, 10, 20}), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{5}) != 0 {
		t.Error("spread of one value is not 0")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median is wrong")
	}
}
