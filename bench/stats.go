package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// value is one reported metric: the figure itself plus the size and
// quartiles of the sample it summarises, so a reader can tell a median
// of seven reps from a single reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// quartiles returns the first quartile, median and third quartile of
// xs by linear interpolation between order statistics. xs is not
// modified. An empty sample yields zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// medianOf summarises a sample of repeated measurements as its median
// with quartiles and count.
func medianOf(xs []float64) value {
	q1, med, q3 := quartiles(xs)
	return value{Value: med, N: len(xs), Q1: q1, Q3: q3}
}

// single wraps a figure that was read or computed once from n samples.
func single(v float64, n int) value { return value{Value: v, N: n} }

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the exact nearest-rank p-th percentile (0 < p ≤
// 100) of an ascending-sorted sample: the smallest element with at
// least p percent of the sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func pct(num, den float64) float64 { return 100 * ratio(num, den) }

// usage is the host cost of one measured region.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // process user+sys
	bytes   uint64        // heap bytes allocated
	mallocs uint64        // heap objects allocated
}

// meter measures a region's host cost: wall clock, process CPU from
// getrusage, and allocation from the runtime's cumulative counters.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	bytes0  uint64
	mallocs uint64
}

// processCPU reports the process's cumulative user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB reports the process's resident set right now, from
// /proc/self/statm; where that cannot be read, the high-water mark
// getrusage reports (KiB on Linux).
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 2 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// startMeter opens a measured region. The slow reads (ReadMemStats
// stops the world) come first so the wall clock starts last.
func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{bytes0: ms.TotalAlloc, mallocs: ms.Mallocs, cpu0: processCPU(), t0: time.Now()}
}

// stop closes the region; the wall clock is read first.
func (m meter) stop() usage {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: wall, cpu: cpu, bytes: ms.TotalAlloc - m.bytes0, mallocs: ms.Mallocs - m.mallocs}
}
