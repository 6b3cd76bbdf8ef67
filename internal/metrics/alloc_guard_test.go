package metrics

import "testing"

// TestHotPathInstrumentsAllocFree guards the per-request metric
// updates: histogram observations sit on every served request (gauges
// are callbacks, read only at snapshot time), so they must never
// allocate once the instruments exist — handles are resolved at
// construction time (see Registry), labeled ones included.
func TestHotPathInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("write_rt_us")
	qw := r.Histogram(Labeled("server_queue_wait_us", "shard", "0"))
	avg := testing.AllocsPerRun(500, func() {
		h.Observe(4096)
		qw.Observe(0)
		qw.Observe(-3)
	})
	if avg != 0 {
		t.Fatalf("metric updates: %.2f allocs/op, want 0", avg)
	}
}
