package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestHistogramGaugeFuncBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("write_rt_us")
	h.Observe(1)
	h.Observe(4)
	if h.N() != 2 || h.Sum() != 5 {
		t.Fatalf("histogram n=%d sum=%d, want 2 and 5", h.N(), h.Sum())
	}
	if r.Histogram("write_rt_us") != h {
		t.Fatal("second registration returned a different histogram")
	}
	depth := int64(7)
	r.GaugeFunc("depth", func() int64 { return depth })
	depth -= 2
	if got := r.Snapshot().Gauges["depth"]; got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	clash := func(what string, first, second func(r *Registry)) {
		t.Helper()
		r := NewRegistry()
		first(r)
		defer func() {
			if recover() == nil {
				t.Fatalf("registering %s did not panic", what)
			}
		}()
		second(r)
	}
	gauge := func(r *Registry) { r.GaugeFunc("x", func() int64 { return 0 }) }
	hist := func(r *Registry) { r.Histogram("x") }
	clash("a histogram under a gauge func's name", gauge, hist)
	clash("a gauge func under a histogram's name", hist, gauge)
}

func TestGaugeFuncReplaceOnReregister(t *testing.T) {
	r := NewRegistry()
	v := int64(1)
	r.GaugeFunc("live", func() int64 { return v })
	v = 42
	if got := r.Snapshot().Gauges["live"]; got != 42 {
		t.Fatalf("gauge func = %d, want 42", got)
	}
	// Re-registering replaces the callback: this is what keeps
	// instrumentation live after crash recovery rebuilds a substrate.
	r.GaugeFunc("live", func() int64 { return 7 })
	if got := r.Snapshot().Gauges["live"]; got != 7 {
		t.Fatalf("gauge func after re-register = %d, want 7", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d, want 7", h.N())
	}
	if h.Sum() != 110 {
		t.Fatalf("Sum = %d, want 110", h.Sum())
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %d, want 100", h.Max())
	}
	// 0 and the clamped -5 land in bucket 0; 1 in bucket 1; 2,3 in
	// bucket 2; 4 in bucket 3; 100 in bucket 7.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, 7: 1}
	for i, c := range h.Counts() {
		if c != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestHistogramSnapshotPercentile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := snapHistogram(&h)
	for _, tc := range []struct{ p, lo, hi float64 }{
		{50, 250, 1000},
		{99, 512, 1000},
		{100, 512, 1000},
	} {
		got := s.Percentile(tc.p)
		if got < tc.lo || got > tc.hi {
			t.Errorf("p%.0f = %.1f, want within [%.0f, %.0f]", tc.p, got, tc.lo, tc.hi)
		}
	}
	if s.Percentile(100) > float64(h.Max()) {
		t.Errorf("p100 %.1f exceeds max %d", s.Percentile(100), h.Max())
	}
}

// Property: a snapshot's percentile is the live histogram's percentile.
// Both go through stats.Percentile, so the test pins the one place they
// could diverge — the snapshot's sparse LE-keyed buckets mapping back
// onto the dense layout — across every bucket, all-zero samples, a
// single sample, the overflow bucket, and p → 0.
func TestSnapshotPercentileMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{1e-9, 0.01, 1, 25, 50, 90, 99, 99.9, 100}
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			switch trial % 4 {
			case 0: // all zero
				h.Observe(0)
			case 1: // wide: any bucket, the overflow one included
				h.Observe(rng.Int63() >> uint(rng.Intn(63)))
			default: // latency-like
				h.Observe(rng.Int63n(1 << uint(1+rng.Intn(24))))
			}
		}
		s := snapHistogram(&h)
		for _, p := range ps {
			if live, snap := h.Percentile(p), s.Percentile(p); live != snap {
				t.Fatalf("trial %d p%g: live %v, snapshot %v", trial, p, live, snap)
			}
		}
		if trial%4 == 0 && s.Percentile(50) != 0 {
			t.Fatalf("all-zero samples: p50 = %v, want 0", s.Percentile(50))
		}
	}
}

// Merging per-shard snapshots must be exact: the merged histogram is
// bucket-for-bucket identical to one histogram that saw every sample.
// This is the property the server's cross-shard aggregation relies on.
func TestHistSnapshotMergeMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var global Histogram
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = &Histogram{}
	}
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << uint(rng.Intn(40)))
		global.Observe(v)
		shards[rng.Intn(len(shards))].Observe(v)
	}
	merged := &HistSnapshot{}
	for _, sh := range shards {
		merged.Merge(snapHistogram(sh))
	}
	want := snapHistogram(&global)
	if merged.N != want.N || merged.Sum != want.Sum || merged.Max != want.Max {
		t.Fatalf("merged N/Sum/Max = %d/%d/%d, want %d/%d/%d",
			merged.N, merged.Sum, merged.Max, want.N, want.Sum, want.Max)
	}
	if len(merged.Buckets) != len(want.Buckets) {
		t.Fatalf("merged has %d buckets, want %d", len(merged.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if merged.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %+v, want %+v", i, merged.Buckets[i], want.Buckets[i])
		}
	}
}

func TestHistSnapshotMergeEmptyAndNil(t *testing.T) {
	var h Histogram
	h.Observe(10)
	s := snapHistogram(&h)
	before := *s
	s.Merge(nil)
	s.Merge(&HistSnapshot{})
	if s.N != before.N || s.Sum != before.Sum || len(s.Buckets) != len(before.Buckets) {
		t.Fatal("merging nil/empty snapshots changed the receiver")
	}
}

func TestSnapshotMergeClonesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h").Observe(5)
	r.GaugeFunc("g", func() int64 { return 3 })
	a := r.Snapshot()
	dst := NewSnapshot()
	dst.Merge(a)
	dst.Histograms["h"].Merge(a.Histograms["h"])
	if a.Histograms["h"].N != 1 {
		t.Fatal("merging into the destination mutated the source snapshot")
	}
	dst.Merge(a)
	if dst.Gauges["g"] != 6 || dst.Histograms["h"].N != 3 {
		t.Fatalf("merged twice: gauge %d, histogram n %d; want 6 and 3", dst.Gauges["g"], dst.Histograms["h"].N)
	}
}

func TestPhaseSetTimeline(t *testing.T) {
	r := NewRegistry()
	ps := r.Phases()
	if r.Phases() != ps {
		t.Fatal("Phases() is not idempotent")
	}
	ps.Begin()
	ps.Observe(PhaseFingerprint, 30)
	ps.Observe(PhaseDiskWrite, 100)
	ps.Observe(PhaseDiskWrite, 50) // second I/O in the same phase accumulates
	if got := ps.last[PhaseDiskWrite]; got != 150 {
		t.Fatalf("scratch disk_write = %d, want 150", got)
	}
	tl := ps.LastTimeline()
	if tl["fingerprint"] != 30 || tl["disk_write"] != 150 {
		t.Fatalf("timeline = %v", tl)
	}
	if _, ok := tl["queue_wait"]; ok {
		t.Fatal("zero phase leaked into the timeline")
	}
	ps.Begin()
	if got := ps.last[PhaseDiskWrite]; got != 0 {
		t.Fatalf("Begin did not clear scratch: %d", got)
	}
	// Histograms persist across Begin.
	if n := r.Snapshot().Histograms["phase_disk_write_us"].N; n != 2 {
		t.Fatalf("disk_write histogram N = %d, want 2", n)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h").Observe(100)
	ps := r.Phases()
	ps.Observe(PhaseDiskWrite, 9)
	live := int64(11)
	r.GaugeFunc("f", func() int64 { return live })
	r.Reset()
	s := r.Snapshot()
	if s.Histograms["h"].N != 0 || s.Histograms["phase_disk_write_us"].N != 0 || ps.last[PhaseDiskWrite] != 0 {
		t.Fatalf("reset left residue: %+v", s)
	}
	if s.Gauges["f"] != 11 {
		t.Fatal("reset dropped the gauge callback")
	}
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(3)
	for i := int64(0); i < 5; i++ {
		ring.Add(TraceRecord{Seq: i})
	}
	if ring.count != 3 {
		t.Fatalf("ring holds %d records, want 3", ring.count)
	}
	got := ring.Drain()
	if len(got) != 3 || got[0].Seq != 2 || got[2].Seq != 4 {
		t.Fatalf("drain = %+v, want seqs 2,3,4", got)
	}
	if ring.count != 0 || ring.Drain() != nil {
		t.Fatal("drain did not empty the ring")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("reqs", func() int64 { return 2 })
	r.Histogram("lat_us").Observe(300)
	s := r.Snapshot()
	s.Traces = []TraceRecord{{Seq: 1, Op: "W", Phases: map[string]int64{"disk_write": 120}}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Gauges["reqs"] != 2 || back.Histograms["lat_us"].N != 1 || len(back.Traces) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("server_shed_total", func() int64 { return 3 })
	r.GaugeFunc(Labeled("server_queue_depth", "shard", "0"), func() int64 { return 4 })
	h := r.Histogram(Labeled("server_queue_wait_us", "shard", "0"))
	h.Observe(1)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE server_shed_total gauge\nserver_shed_total 3\n",
		"# TYPE server_queue_depth gauge\nserver_queue_depth{shard=\"0\"} 4\n",
		"# TYPE server_queue_wait_us histogram\n",
		`server_queue_wait_us_bucket{shard="0",le="1"} 1`,
		`server_queue_wait_us_bucket{shard="0",le="+Inf"} 2`,
		`server_queue_wait_us_sum{shard="0"} 501`,
		`server_queue_wait_us_count{shard="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q; got:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at N.
	if strings.Count(out, "server_queue_wait_us_bucket") < 2 {
		t.Error("expected at least two bucket lines")
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("m", "shard", "3"); got != `m{shard="3"}` {
		t.Fatalf("Labeled = %q", got)
	}
	base, labels := splitName(`m{shard="3"}`)
	if base != "m" || labels != `shard="3"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
	base, labels = splitName("plain")
	if base != "plain" || labels != "" {
		t.Fatalf("splitName(plain) = %q, %q", base, labels)
	}
}

func TestBucketUpperSaturates(t *testing.T) {
	if bucketUpper(63) != math.MaxInt64 || bucketUpper(70) != math.MaxInt64 {
		t.Fatal("overflow bucket upper bound must saturate")
	}
	if bucketUpper(0) != 1 || bucketUpper(10) != 1024 {
		t.Fatal("bucket upper bounds wrong")
	}
}

// The hot path must not allocate: observing histograms and phases goes
// through pre-resolved handles only.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	ps := r.Phases()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(123)
		ps.Begin()
		ps.Observe(PhaseDiskWrite, 77)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f per op, want 0", allocs)
	}
}
