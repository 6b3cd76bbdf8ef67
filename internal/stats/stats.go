// Package stats provides the streaming statistics used by the POD
// evaluation harness: the log-scale latency histogram with percentile
// estimation, counter-struct merging, and result tables.
//
// Everything here is allocation-light and deterministic so that replay
// results are byte-for-byte reproducible.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Buckets is the fixed bucket count of every histogram.
const Buckets = 64

// Histogram is a log₂-bucketed latency histogram over non-negative
// integer samples (microseconds in this repository). Bucket i covers
// [2^(i-1), 2^i); bucket 0 holds only zero; the last bucket also takes
// everything above it. The layout is fixed, so histograms merge exactly
// and never allocate after creation. Percentiles are estimated by
// linear interpolation within a bucket. It is the one histogram of the
// repository: engine.Stats, the server's latency view and the metrics
// registry (live and in snapshots) all count and estimate through it.
type Histogram struct {
	buckets [Buckets]int64
	n       int64
	sum     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample; negative samples are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b > Buckets-1 {
		b = Buckets - 1
	}
	h.buckets[b]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Counts returns the per-bucket sample counts.
func (h *Histogram) Counts() [Buckets]int64 { return h.buckets }

// N reports the number of samples.
func (h *Histogram) N() int64 { return h.n }

// Mean reports the arithmetic mean of samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Sum reports the sample total.
func (h *Histogram) Sum() int64 { return h.sum }

// Max reports the largest sample seen.
func (h *Histogram) Max() int64 { return h.max }

// Percentile estimates the p-th percentile (0 < p ≤ 100).
func (h *Histogram) Percentile(p float64) float64 {
	return Percentile(&h.buckets, h.n, h.max, p)
}

// Percentile is the estimator behind Histogram.Percentile, over bare
// bucket counts (n samples in total, the largest max) so a histogram
// rebuilt from a snapshot answers exactly as the live one did. Ranks
// below the first sample resolve to the first sample's bucket; the
// estimate never exceeds max; the overflow bucket has no upper edge to
// interpolate toward and reports max.
func Percentile(buckets *[Buckets]int64, n, max int64, p float64) float64 {
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range buckets[:Buckets-1] {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := float64(int64(1) << uint(i) >> 1)
			hi := float64(int64(1) << uint(i))
			v := lo + (rank-seen)/float64(c)*(hi-lo)
			if v > float64(max) {
				v = float64(max)
			}
			return v
		}
		seen += float64(c)
	}
	return float64(max)
}

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Ratio returns a/b as a percentage, 0 when b is 0.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Exact percentile over a full sample slice (used by tests to validate
// the histogram estimator, and by small analyses where exactness is
// cheap). Sorts a copy; p in (0,100].
func ExactPercentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(cp) {
		rank = len(cp) - 1
	}
	return cp[rank]
}
