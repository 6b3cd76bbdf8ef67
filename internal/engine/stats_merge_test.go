package engine

import (
	"reflect"
	"testing"

	"github.com/pod-dedup/pod/internal/stats"
)

// TestStatsMergeAggregatesShards fills every field of two Stats with
// distinct values and requires each to aggregate: integer counters sum
// (NVRAMPeakBytes too: each shard owns an independent journal device,
// so the aggregate peak footprint is the sum of the shard peaks), and
// histograms merge. A field added to Stats without a line in Merge
// fails here, and so does a field of a kind this test does not know.
func TestStatsMergeAggregatesShards(t *testing.T) {
	a, b := NewStats(), NewStats()
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	typ := av.Type()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type {
		case reflect.TypeOf(int64(0)):
			av.Field(i).SetInt(int64(10 + i))
			bv.Field(i).SetInt(int64(1000 + 7*i))
		case reflect.TypeOf(a.ReadRT):
			av.Field(i).Interface().(*stats.Histogram).Add(int64(100 + i))
			bv.Field(i).Interface().(*stats.Histogram).Add(int64(5000 + i))
		default:
			t.Fatalf("Stats.%s has type %v: decide how it merges, then teach this test", f.Name, f.Type)
		}
	}

	srcReads := b.Reads
	a.Merge(b)

	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if h, ok := av.Field(i).Interface().(*stats.Histogram); ok {
			if h.N() != 2 || h.Sum() != int64(5100+2*i) || h.Max() != int64(5000+i) {
				t.Errorf("%s: n=%d sum=%d max=%d, want the two shards' samples", name, h.N(), h.Sum(), h.Max())
			}
			continue
		}
		if got, want := av.Field(i).Int(), int64(1010+8*i); got != want {
			t.Errorf("%s = %d, want %d (the two shards' sum)", name, got, want)
		}
	}
	if b.Reads != srcReads || b.ReadRT.N() != 1 {
		t.Fatal("Merge changed its source")
	}
}

func TestStatsMergeIntoZeroIsIdentity(t *testing.T) {
	src := NewStats()
	src.Reads, src.Writes = 4, 9
	src.WritesRemoved = 3
	src.ReadRT.Add(123)
	src.WriteRT.Add(456)

	dst := NewStats()
	dst.Merge(src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("zero+src != src:\n dst=%+v\n src=%+v", dst, src)
	}
}
