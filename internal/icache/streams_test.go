package icache

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/sim"
)

// streamController builds a stream-mode controller over the 64 KB test
// budget (512 index entries at the 50/50 split → 256 entries... the
// split yields 512 entries when IndexFrac is 0.5 of 64 KB / 64 B).
func streamController(t *testing.T, adaptive bool, static map[uint32]float64) *Controller {
	t.Helper()
	c := New(testParams(adaptive))
	c.EnableStreams(static)
	return c
}

func checkAll(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamStaticIsolation(t *testing.T) {
	// a 50/50 static split of the index partition between streams 1, 2
	c := streamController(t, false, map[uint32]float64{1: 0.5, 2: 0.5})
	half := c.IndexCapTotal() / 2

	// stream 2 caches a modest working set
	for i := 0; i < 10; i++ {
		c.IndexInsertS(2, fp(uint64(1000+i)), alloc.PBA(1000+i))
	}
	// stream 1 floods far past the whole partition
	for i := 0; i < 4*c.IndexCapTotal(); i++ {
		c.IndexInsertS(1, fp(uint64(i)), alloc.PBA(i))
	}
	checkAll(t, c)

	// stream 2's entries survived the neighbour's flood
	for i := 0; i < 10; i++ {
		if _, ok := c.IndexLookupS(2, fp(uint64(1000+i))); !ok {
			t.Fatalf("stream 2 entry %d evicted by stream 1's flood", i)
		}
	}
	qs := quotas(c)
	if len(qs) != 2 {
		t.Fatalf("quota count = %d", len(qs))
	}
	for _, q := range qs {
		if q.Cap != half {
			t.Errorf("stream %d cap = %d, want %d", q.Stream, q.Cap, half)
		}
		if q.Len > q.Cap {
			t.Errorf("stream %d holds %d entries over cap %d", q.Stream, q.Len, q.Cap)
		}
	}
}

func TestStreamCrossStreamHit(t *testing.T) {
	c := streamController(t, false, nil)
	c.IndexInsertS(1, fp(42), alloc.PBA(7))
	// the index is one logical directory: another stream's lookup hits
	e, ok := c.IndexLookupS(2, fp(42))
	if !ok || e.PBA != 7 {
		t.Fatalf("cross-stream lookup = %+v, %v", e, ok)
	}
	// the hit is attributed to the requesting stream
	for _, q := range quotas(c) {
		if q.Stream == 2 && (q.Lookups != 1 || q.Hits != 1) {
			t.Errorf("stream 2 accounting = %d lookups, %d hits", q.Lookups, q.Hits)
		}
	}
	checkAll(t, c)
}

func TestStreamZeroQuotaDropsInserts(t *testing.T) {
	c := streamController(t, false, map[uint32]float64{1: 1.0, 2: 0.0})
	c.IndexInsertS(2, fp(1), alloc.PBA(1))
	if _, ok := c.IndexLookupS(2, fp(1)); ok {
		t.Fatal("zero-quota stream cached an entry")
	}
	if _, ok := indexPeek(c, fp(1)); ok {
		t.Fatal("zero-quota insert leaked into the directory")
	}
	checkAll(t, c)
}

func TestStreamDynamicResize(t *testing.T) {
	c := streamController(t, false, nil)
	total := c.IndexCapTotal()

	// equal split while unapportioned
	c.IndexInsertS(1, fp(1), alloc.PBA(1))
	c.IndexInsertS(2, fp(2), alloc.PBA(2))
	for _, q := range quotas(c) {
		if q.Cap != total/2 {
			t.Fatalf("equal-split cap = %d, want %d", q.Cap, total/2)
		}
	}

	// fill stream 1 to its quota, then shrink it to 10%
	for i := 0; i < total/2; i++ {
		c.IndexInsertS(1, fp(uint64(100+i)), alloc.PBA(100+i))
	}
	c.SetStreamShares(map[uint32]float64{1: 0.1, 2: 0.9})
	checkAll(t, c)
	qs := quotas(c)
	if qs[0].Cap != total/10 || qs[0].Len > qs[0].Cap {
		t.Fatalf("shrunk stream: cap=%d len=%d, want cap %d", qs[0].Cap, qs[0].Len, total/10)
	}
	if qs[1].Cap != total*9/10 {
		t.Fatalf("grown stream cap = %d, want %d", qs[1].Cap, total*9/10)
	}

	// a stream absent from the shares map loses its quota entirely
	c.SetStreamShares(map[uint32]float64{2: 1.0})
	checkAll(t, c)
	if q := quotas(c)[0]; q.Cap != 0 || q.Len != 0 {
		t.Fatalf("dropped stream kept cap=%d len=%d", q.Cap, q.Len)
	}
}

func TestStreamOwnershipSticksToFirstInserter(t *testing.T) {
	c := streamController(t, false, nil)
	c.IndexInsertS(1, fp(5), alloc.PBA(10))
	// a remap from another stream updates in place, ownership unmoved
	c.IndexInsertS(2, fp(5), alloc.PBA(20))
	e, ok := indexPeek(c, fp(5))
	if !ok || e.PBA != 20 {
		t.Fatalf("remap not applied: %+v, %v", e, ok)
	}
	qs := quotas(c)
	if qs[0].Len != 1 {
		t.Errorf("owner stream len = %d, want 1", qs[0].Len)
	}
	if len(qs) > 1 && qs[1].Len != 0 {
		t.Errorf("non-owner stream len = %d, want 0", qs[1].Len)
	}
	checkAll(t, c)
}

func TestStreamPurgePBA(t *testing.T) {
	c := streamController(t, true, nil)
	c.IndexInsertS(1, fp(1), alloc.PBA(11))
	c.IndexInsertS(2, fp(2), alloc.PBA(22))
	c.ReadInsert(alloc.PBA(11))
	c.ReadInsert(alloc.PBA(22))
	// block 11 is freed: the read side by the block, the index by content
	c.PurgePBA(alloc.PBA(11))
	if c.ReadHit(alloc.PBA(11)) || !c.ReadHit(alloc.PBA(22)) {
		t.Fatal("purge missed block 11's read slot or dropped block 22's")
	}
	if _, ok := indexPeek(c, fp(1)); !ok {
		t.Fatal("purge dropped an index entry: the index leaves by content")
	}
	c.ForgetIndex(fp(1), alloc.PBA(11))
	if _, ok := c.IndexLookupS(1, fp(1)); ok {
		t.Fatal("forgotten entry still resolves")
	}
	if _, ok := c.IndexLookupS(2, fp(2)); !ok {
		t.Fatal("forget removed an unrelated stream's entry")
	}
	checkAll(t, c)
}

// TestStreamGhostSwapIn exercises the adaptive path: entries evicted by
// a quota shrink park in the ghost with their stream identity and
// return to the right quota when capacity comes back.
func TestStreamGhostSwapIn(t *testing.T) {
	c := streamController(t, true, nil)
	total := c.IndexCapTotal()
	n := total / 4
	for i := 0; i < n; i++ {
		c.IndexInsertS(1, fp(uint64(i)), alloc.PBA(i))
	}
	// shrink stream 1 to nothing: entries move to the ghost
	c.SetStreamShares(map[uint32]float64{1: 0.0, 2: 1.0})
	checkAll(t, c)
	if _, ok := c.IndexLookupS(1, fp(0)); ok {
		t.Fatal("entry survived a zero quota")
	}
	// restore quota; the next evaluation tick swaps ghost entries back
	c.SetStreamShares(map[uint32]float64{1: 0.5, 2: 0.5})
	rep := c.Tick(sim.Time(c.p.Interval) + 1)
	if rep.IndexSwapIns == 0 {
		t.Fatal("no ghost swap-ins after quota restore")
	}
	found := 0
	for i := 0; i < n; i++ {
		if _, ok := indexPeek(c, fp(uint64(i))); ok {
			found++
		}
	}
	if found == 0 {
		t.Fatal("swap-ins restored no stream-1 entries")
	}
	for _, q := range quotas(c) {
		if q.Stream == 2 && q.Len != 0 {
			t.Fatalf("swap-ins leaked %d entries into stream 2", q.Len)
		}
	}
	checkAll(t, c)
}

// TestStreamRepartitionComposes drives the adaptive index/read Swap
// Module underneath per-stream quotas: after the partition boundary
// moves, per-stream capacities still sum to the (new) index budget.
func TestStreamRepartitionComposes(t *testing.T) {
	c := streamController(t, true, nil)
	for i := 0; i < 2*c.IndexCapTotal(); i++ {
		c.IndexInsertS(uint32(1+i%3), fp(uint64(i)), alloc.PBA(i))
		c.IndexLookupS(uint32(1+i%3), fp(uint64(i/2)))
		if i%64 == 0 {
			c.Tick(sim.Time(i) * sim.Time(sim.Millisecond) * 20)
		}
	}
	checkAll(t, c)
	sum := 0
	for _, q := range quotas(c) {
		sum += q.Cap
	}
	if sum > c.IndexCapTotal()+3 {
		t.Fatalf("quotas sum to %d, budget %d", sum, c.IndexCapTotal())
	}
}
