package stats

import (
	"reflect"
	"strings"
	"testing"
)

type counters struct {
	A     int64
	B     int
	U     uint64
	F     float64
	Hist  *Histogram
	Empty *Histogram
}

func newCounters() *counters {
	return &counters{Hist: NewHistogram(), Empty: NewHistogram()}
}

func TestMergeStructsSumsAndMerges(t *testing.T) {
	a, b := newCounters(), newCounters()
	a.A, b.A = 3, 4
	a.B, b.B = 1, 2
	a.U, b.U = 10, 20
	a.F, b.F = 0.5, 0.25
	a.Hist.Add(100)
	b.Hist.Add(300)

	MergeStructs(a, b)

	if a.A != 7 || a.B != 3 || a.U != 30 || a.F != 0.75 {
		t.Fatalf("scalar merge wrong: %+v", a)
	}
	if a.Hist.N() != 2 || a.Hist.Sum() != 400 || a.Hist.Max() != 300 {
		t.Fatalf("histogram merge wrong: n=%d sum=%d max=%d", a.Hist.N(), a.Hist.Sum(), a.Hist.Max())
	}
	// b must be untouched
	if b.A != 4 || b.Hist.N() != 1 {
		t.Fatalf("source mutated: %+v", b)
	}
}

func TestMergeStructsIdentity(t *testing.T) {
	// merging into a zeroed struct must reproduce the source exactly —
	// the property the per-shard snapshot aggregation relies on.
	src := newCounters()
	src.A = 42
	src.Hist.Add(7)
	src.Hist.Add(9000)

	dst := newCounters()
	MergeStructs(dst, src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("zero+src != src:\n dst=%+v\n src=%+v", dst, src)
	}
}

func TestMergeStructsNilSourceFieldSkipped(t *testing.T) {
	a, b := newCounters(), newCounters()
	b.Empty = nil
	MergeStructs(a, b) // must not panic
	if a.Empty == nil {
		t.Fatal("destination field lost")
	}
}

func TestMergeStructsRejectsUnsupported(t *testing.T) {
	type bad struct{ S string }
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported field kind")
		}
	}()
	MergeStructs(&bad{}, &bad{})
}

func TestMergeStructsNestedStructsRecurse(t *testing.T) {
	type inner struct {
		N    int64
		Hist *Histogram
	}
	type outer struct {
		Total int64
		In    inner
	}
	a := &outer{Total: 1, In: inner{N: 10, Hist: NewHistogram()}}
	b := &outer{Total: 2, In: inner{N: 20, Hist: NewHistogram()}}
	a.In.Hist.Add(5)
	b.In.Hist.Add(7)

	MergeStructs(a, b)

	if a.Total != 3 || a.In.N != 30 {
		t.Fatalf("nested scalar merge wrong: %+v", a)
	}
	if a.In.Hist.N() != 2 || a.In.Hist.Sum() != 12 {
		t.Fatalf("nested histogram merge wrong: n=%d sum=%d", a.In.Hist.N(), a.In.Hist.Sum())
	}
	if b.In.N != 20 || b.In.Hist.N() != 1 {
		t.Fatalf("source mutated: %+v", b)
	}
}

func TestMergeStructsRejectsUnexportedFields(t *testing.T) {
	type sneaky struct {
		A      int64
		hidden int64
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unexported field")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "hidden") {
			t.Fatalf("panic must name the offending field: %v", r)
		}
	}()
	MergeStructs(&sneaky{hidden: 1}, &sneaky{hidden: 2})
}

func TestMergeStructsRejectsMismatch(t *testing.T) {
	type x struct{ A int64 }
	type y struct{ A int64 }
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for type mismatch")
		}
	}()
	MergeStructs(&x{}, &y{})
}
