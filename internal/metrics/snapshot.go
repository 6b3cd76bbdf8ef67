package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"

	"github.com/pod-dedup/pod/internal/stats"
)

// Bucket is one non-empty histogram bucket in a snapshot. LE is the
// inclusive upper bound of the bucket in microseconds (2^i - 1 for
// log₂ bucket i, MaxInt64 for the overflow bucket); Count is the
// number of samples that fell in it.
type Bucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is an immutable, sparse copy of a Histogram: only
// non-empty buckets are kept, so snapshots of mostly-empty histograms
// stay small in JSON.
type HistSnapshot struct {
	N       int64    `json:"n"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func snapHistogram(h *Histogram) *HistSnapshot {
	s := &HistSnapshot{N: h.N(), Sum: h.Sum(), Max: h.Max()}
	for i, c := range h.Counts() {
		if c != 0 {
			le := bucketUpper(i) - 1
			if bucketUpper(i) == math.MaxInt64 {
				le = math.MaxInt64
			}
			s.Buckets = append(s.Buckets, Bucket{LE: le, Count: c})
		}
	}
	return s
}

// Mean reports the snapshot's arithmetic mean, 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Percentile estimates the p-th percentile (0 < p <= 100) with the
// live histogram's estimator, over the buckets laid back out densely.
func (s *HistSnapshot) Percentile(p float64) float64 {
	var dense [stats.Buckets]int64
	for _, b := range s.Buckets {
		dense[bits.Len64(uint64(b.LE))] += b.Count // LE = 2^i − 1 ↔ bucket i
	}
	return stats.Percentile(&dense, s.N, s.Max, p)
}

// Merge adds other's samples into s bucket-wise. Because both sides
// share the fixed log₂ layout the merge is exact: merging per-shard
// snapshots gives the same histogram one global registry would have
// recorded.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil || other.N == 0 {
		return
	}
	s.N += other.N
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	byLE := make(map[int64]int64, len(s.Buckets)+len(other.Buckets))
	for _, b := range s.Buckets {
		byLE[b.LE] += b.Count
	}
	for _, b := range other.Buckets {
		byLE[b.LE] += b.Count
	}
	merged := make([]Bucket, 0, len(byLE))
	for le, c := range byLE {
		merged = append(merged, Bucket{LE: le, Count: c})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].LE < merged[j].LE })
	s.Buckets = merged
}

// Clone returns an independent deep copy.
func (s *HistSnapshot) Clone() *HistSnapshot {
	c := &HistSnapshot{N: s.N, Sum: s.Sum, Max: s.Max}
	c.Buckets = append([]Bucket(nil), s.Buckets...)
	return c
}

// Snapshot is a point-in-time copy of one or more registries' metrics
// plus any sampled traces collected alongside. It is plain data: safe
// to merge, marshal, and hand across goroutines.
type Snapshot struct {
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]*HistSnapshot `json:"histograms"`
	Traces     []TraceRecord            `json:"traces,omitempty"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]*HistSnapshot),
	}
}

// Merge folds other into s: gauges sum (note the caveat: summing
// occupancy-style gauges across shards gives fleet totals, but
// ratio-style gauges such as index_frac_permille become sums — divide
// by shard count, or read the per-shard labeled series), histograms
// merge bucket-wise, traces append.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for k, v := range other.Gauges {
		s.Gauges[k] += v
	}
	for k, h := range other.Histograms {
		if cur, ok := s.Histograms[k]; ok {
			cur.Merge(h)
		} else {
			s.Histograms[k] = h.Clone()
		}
	}
	s.Traces = append(s.Traces, other.Traces...)
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Names created with Labeled keep their labels; histogram
// buckets gain the conventional `le` label (cumulative counts) plus
// _sum and _count series.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, name := range sortedKeys(s.Gauges) {
		base, labels := splitName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", base, promName(base, labels, ""), s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		base, labels := splitName(name)
		h := s.Histograms[name]
		fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
		var cum int64
		for _, bk := range h.Buckets {
			cum += bk.Count
			le := fmt.Sprintf("%d", bk.LE)
			if bk.LE == math.MaxInt64 {
				le = "+Inf"
			}
			fmt.Fprintf(&b, "%s %d\n", promName(base+"_bucket", labels, `le="`+le+`"`), cum)
		}
		if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].LE != math.MaxInt64 {
			fmt.Fprintf(&b, "%s %d\n", promName(base+"_bucket", labels, `le="+Inf"`), h.N)
		}
		fmt.Fprintf(&b, "%s %d\n", promName(base+"_sum", labels, ""), h.Sum)
		fmt.Fprintf(&b, "%s %d\n", promName(base+"_count", labels, ""), h.N)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName renders name with the union of pre-existing labels (from
// Labeled) and extra (e.g. the `le` bucket label).
func promName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}
