// Package loadstats is the latency-distribution math behind the metrics
// registry's histograms (internal/obs) and the proxy's hedge-budget
// estimator (internal/proxy): a fixed-size log-linear histogram of int64
// nanosecond durations in the HDR-histogram style, with streaming inserts,
// exact lossless merge, and rank-based quantiles.
//
// The bucket layout trades a bounded relative error for O(1) inserts and a
// few KiB of memory: values below 2^subBits are recorded exactly, and every
// octave above that is split into 2^subBits sub-buckets, so a reported
// quantile overstates the true order statistic by at most a factor of
// 1 + 2^-subBits (~1.6%). The true minimum, maximum and sum are tracked
// exactly on the side, and Quantile clamps against the exact maximum, so
// p100 is always exact. Merging histograms is plain bucket-count addition —
// associative, commutative, and byte-identical to having recorded every
// value into one histogram, which is what lets per-worker histograms be
// combined without locks on the hot path. Both properties are enforced by
// property tests against a sorted-slice oracle.
package loadstats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	// subBits sets the precision: 2^subBits sub-buckets per octave, so the
	// relative quantile error is bounded by 2^-subBits.
	subBits  = 6
	subCount = 1 << subBits // 64

	// octaves covers the full non-negative int64 range: values with bit
	// length subBits+1 .. 63 each get one octave of sub-buckets, plus the
	// exact region below 2^subBits.
	octaves = 64 - subBits

	numBuckets = (octaves + 1) * subCount
)

// Hist is a streaming log-linear histogram of non-negative int64 values
// (nanoseconds, by convention). The zero value is NOT ready to use; call
// New. Not safe for concurrent use — shard per goroutine and Merge.
type Hist struct {
	counts []uint64
	n      uint64
	min    int64
	max    int64
	sum    int64
}

// New returns an empty histogram.
func New() *Hist {
	return &Hist{counts: make([]uint64, numBuckets), min: -1}
}

// bucketOf maps a value to its bucket index. Values < subCount map to
// themselves (exact); a value in octave k (i.e. in [subCount<<k,
// subCount<<(k+1))) maps by dropping its k lowest bits.
func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - (subBits + 1)
	return k<<subBits + int(v>>uint(k))
}

// bucketMax returns the largest value a bucket holds — the value Quantile
// reports for any rank landing in it, so quantiles never understate.
func bucketMax(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	k := idx>>subBits - 1
	sub := int64(idx&(subCount-1) | subCount)
	return (sub+1)<<uint(k) - 1
}

// Record adds one value. Negative values clamp to zero (a scheduled-send
// latency can only be negative through clock trouble; zero is the honest
// floor).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds one duration in nanoseconds.
func (h *Hist) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns how many values have been recorded.
func (h *Hist) Count() uint64 { return h.n }

// Min returns the exact smallest recorded value (0 when empty).
func (h *Hist) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest recorded value (0 when empty).
func (h *Hist) Max() int64 { return h.max }

// Sum returns the exact sum of recorded values.
func (h *Hist) Sum() int64 { return h.sum }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// bucket holding the ceil(q*n)-th smallest value, clamped to the exact
// observed maximum — so the result never understates the true order
// statistic and overstates it by at most a factor of 1+2^-subBits.
// Returns 0 on an empty histogram; q outside [0,1] clamps.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if v := bucketMax(i); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max // unreachable: cum ends at h.n >= rank
}

// Merge folds other into h: the result is byte-identical to having
// recorded every one of other's values into h directly. other is left
// untouched; merging is associative and commutative.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if h.min < 0 || (other.min >= 0 && other.min < h.min) {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary is the fixed percentile slate the load reports carry.
type Summary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p99_9_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summarize extracts the report slate, in milliseconds.
func (h *Hist) Summarize() Summary {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return Summary{
		Count:  h.n,
		MeanMs: h.Mean() / 1e6,
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P99Ms:  ms(h.Quantile(0.99)),
		P999Ms: ms(h.Quantile(0.999)),
		MaxMs:  ms(h.Max()),
	}
}

// String renders the slate for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%.2fms p99=%.2fms p99.9=%.2fms max=%.2fms",
		s.Count, s.P50Ms, s.P99Ms, s.P999Ms, s.MaxMs)
}
