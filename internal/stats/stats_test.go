package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Add(i)
	}
	if h.N() != 100 {
		t.Fatalf("n = %d", h.N())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %d, want 5050", h.Sum())
	}
	if h.Max() != 100 {
		t.Errorf("max = %d, want 100", h.Max())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %f, want 50.5", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Add(-5)
	if h.Sum() != 0 || h.N() != 1 {
		t.Error("negative sample should clamp to 0")
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 {
		t.Error("empty histogram percentile should be 0")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Log-bucketed percentiles must be within a factor of 2 of exact.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var samples []float64
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 10000)
		h.Add(v)
		samples = append(samples, float64(v))
	}
	for _, p := range []float64{50, 90, 99} {
		est := h.Percentile(p)
		exact := ExactPercentile(samples, p)
		if exact == 0 {
			continue
		}
		ratio := est / exact
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("p%.0f: est %f vs exact %f (ratio %f)", p, est, exact, ratio)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(10)
	b.Add(1000)
	a.Merge(b)
	if a.N() != 2 || a.Sum() != 1010 || a.Max() != 1000 {
		t.Error("merge wrong")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Reset()
	if h.N() != 0 || h.Sum() != 0 {
		t.Error("reset failed")
	}
}

func TestBucketLayout(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
		{math.MaxInt64, Buckets - 1},
	}
	for _, c := range cases {
		h := NewHistogram()
		h.Add(c.v)
		if got := h.Counts(); got[c.want] != 1 {
			t.Errorf("sample %d not in bucket %d", c.v, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != 25 {
		t.Error("ratio wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Error("ratio with zero denominator should be 0")
	}
}

func TestExactPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := ExactPercentile(s, 50); got != 5 {
		t.Errorf("p50 = %f, want 5", got)
	}
	if got := ExactPercentile(s, 100); got != 10 {
		t.Errorf("p100 = %f, want 10", got)
	}
	if got := ExactPercentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %f, want 0", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta\t%d", 22)
	out := tb.String()
	for _, want := range []string{"Demo", "name", "alpha", "beta", "22"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if Pct(12.34) != "12.3%" {
		t.Errorf("Pct = %q", Pct(12.34))
	}
	if Ms(1500) != "1.50ms" {
		t.Errorf("Ms = %q", Ms(1500))
	}
}

// Property: histogram mean equals true mean exactly (sum is exact), and
// percentile estimates never exceed max.
func TestHistogramProperties(t *testing.T) {
	f := func(vals []uint32) bool {
		h := NewHistogram()
		var sum int64
		var max int64
		for _, v := range vals {
			x := int64(v % 1_000_000)
			h.Add(x)
			sum += x
			if x > max {
				max = x
			}
		}
		if h.Sum() != sum {
			return false
		}
		if len(vals) > 0 && h.Percentile(99) > float64(max) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
