package icache

import (
	"testing"
	"testing/quick"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

func fp(id uint64) chunk.Fingerprint {
	return chunk.ContentID(id).Fingerprint()
}

func testParams(adaptive bool) Params {
	p := DefaultParams(64 * 1024) // 64 KB budget: 512 index entries or 16 blocks max
	p.Adaptive = adaptive
	p.IndexEntryBytes = 64
	return p
}

func TestNewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero budget": func() { New(Params{TotalBytes: 0, IndexEntryBytes: 1, IndexFrac: 0.5}) },
		"bad frac":    func() { New(Params{TotalBytes: 100, IndexEntryBytes: 1, IndexFrac: 1.5}) },
		"zero entry":  func() { New(Params{TotalBytes: 100, IndexFrac: 0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInitialPartition(t *testing.T) {
	c := New(testParams(false))
	// 50 % of 64 KB = 32 KB: 512 index entries, 8 read blocks
	if c.IndexCapTotal() != 512 {
		t.Errorf("index cap = %d, want 512", c.IndexCapTotal())
	}
	if c.ReadCacheCap() != 8 {
		t.Errorf("read cap = %d, want 8", c.ReadCacheCap())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexLookupInsert(t *testing.T) {
	c := New(testParams(false))
	if _, ok := c.IndexLookup(fp(1)); ok {
		t.Fatal("phantom hit")
	}
	c.IndexInsert(fp(1), 100)
	if e, ok := c.IndexLookup(fp(1)); !ok || e.PBA != 100 {
		t.Fatal("lookup after insert failed")
	}
	// duplicate insert with the same pba is a no-op
	c.IndexInsert(fp(1), 100)
	if e, ok := c.IndexLookup(fp(1)); !ok || e.PBA != 100 {
		t.Fatalf("entry after idempotent insert = %+v,%v", e, ok)
	}
}

func TestReadCachePath(t *testing.T) {
	c := New(testParams(false))
	if c.ReadHit(5) {
		t.Fatal("phantom read hit")
	}
	c.ReadInsert(5)
	if !c.ReadHit(5) {
		t.Fatal("miss after insert")
	}
}

func TestStaticModeNeverRepartitions(t *testing.T) {
	c := New(testParams(false))
	for i := uint64(0); i < 100; i++ {
		c.IndexLookup(fp(i))
		c.ReadHit(alloc.PBA(i))
	}
	rep := c.Tick(sim.Time(10 * sim.Second))
	if rep.Changed || c.repartitions != 0 {
		t.Fatal("static controller repartitioned")
	}
	if c.indexFrac != 0.5 {
		t.Fatal("fraction moved in static mode")
	}
}

// Drive ghost-index hits and verify the partition grows toward the
// index cache.
func TestAdaptiveGrowsIndexOnGhostIndexHits(t *testing.T) {
	p := testParams(true)
	p.IndexFrac = 0.5
	c := New(p)
	// overflow the index cache so evictions land in the ghost
	for i := uint64(0); i < 1000; i++ {
		c.IndexInsert(fp(i), alloc.PBA(i))
	}
	// re-reference evicted fingerprints: ghost hits accumulate
	for i := uint64(0); i < 400; i++ {
		c.IndexLookup(fp(i))
	}
	rep := c.Tick(sim.Time(sim.Second))
	if !rep.Changed {
		t.Fatal("expected repartition")
	}
	if c.indexFrac <= 0.5 {
		t.Fatalf("index frac = %f, want > 0.5", c.indexFrac)
	}
	if rep.IndexSwapIns == 0 {
		t.Fatal("growth must swap ghost entries back in")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveGrowsReadOnGhostReadHits(t *testing.T) {
	p := testParams(true)
	c := New(p)
	// overflow the read cache (cap 8) so evictions land in its ghost
	for i := 0; i < 64; i++ {
		c.ReadInsert(alloc.PBA(i))
	}
	// re-reference the most recently evicted blocks (the ghost holds
	// only maxReadBlocks - cap = 8 entries: blocks 48..55), re-admitting
	// each after its miss as the engine's read path does
	for i := 48; i < 56; i++ {
		if !c.ReadHit(alloc.PBA(i)) {
			c.ReadInsert(alloc.PBA(i))
		}
	}
	rep := c.Tick(sim.Time(sim.Second))
	if !rep.Changed {
		t.Fatal("expected repartition")
	}
	if c.indexFrac >= 0.5 {
		t.Fatalf("index frac = %f, want < 0.5", c.indexFrac)
	}
	if len(rep.ReadSwapIns) == 0 {
		t.Fatal("growth must swap ghost read blocks back in")
	}
	for _, pba := range rep.ReadSwapIns {
		if !c.ReadHit(pba) {
			t.Fatal("swapped-in block must now hit")
		}
	}
}

func TestTickHonorsInterval(t *testing.T) {
	p := testParams(true)
	c := New(p)
	for i := uint64(0); i < 1000; i++ {
		c.IndexInsert(fp(i), alloc.PBA(i))
	}
	for i := uint64(0); i < 100; i++ {
		c.IndexLookup(fp(i))
	}
	if rep := c.Tick(sim.Time(p.Interval / 2)); rep.Changed {
		t.Fatal("tick before interval must be a no-op")
	}
	if rep := c.Tick(sim.Time(p.Interval)); !rep.Changed {
		t.Fatal("tick at interval must evaluate")
	}
}

func TestFracBounds(t *testing.T) {
	p := testParams(true)
	c := New(p)
	now := sim.Time(0)
	// push hard toward index growth repeatedly: (1-minFrac-0.5)/step = 4
	// repartitions reach the bound, the rest must stay on it
	for round := 0; round < 8; round++ {
		for i := uint64(0); i < 2000; i++ {
			c.IndexInsert(fp(i+uint64(round)*10000), alloc.PBA(i))
		}
		// the index holds the newest entries and the ghost the ones just
		// before them: these lookups are ghost hits
		for i := uint64(1000); i < 1200; i++ {
			c.IndexLookup(fp(i + uint64(round)*10000))
		}
		now = now.Add(p.Interval)
		c.Tick(now)
		if f := c.indexFrac; f < minFrac-1e-9 || f > 1-minFrac+1e-9 {
			t.Fatalf("frac %f out of bounds", f)
		}
	}
	if f := c.indexFrac; f != 1-minFrac {
		t.Fatalf("frac %f after 8 one-sided intervals, want the bound %f", f, 1-minFrac)
	}
}

func TestPurgePBA(t *testing.T) {
	p := testParams(true)
	c := New(p)
	c.ReadInsert(7)
	c.PurgePBA(7)
	// reuse of the freed block must not produce a stale hit
	if c.ReadHit(7) {
		t.Fatal("stale read-cache entry after purge")
	}
	// the index side leaves by content: evict fp(0) and fp(1) into the
	// ghost (cap 512), both bound to the blocks of the same ids
	for i := uint64(0); i < 600; i++ {
		c.IndexInsert(fp(i), alloc.PBA(i))
	}
	c.PurgePBA(0)
	c.PurgePBA(1)
	c.ForgetIndex(fp(0), 0)
	c.ForgetIndex(fp(1), 2) // a block fp(1) does not bind
	c.IndexLookup(fp(0))
	if c.totalGhostIdxHits != 0 {
		t.Fatal("forgotten ghost entry still counted a hit")
	}
	c.IndexLookup(fp(1))
	if c.totalGhostIdxHits != 1 {
		t.Fatal("a purge or another block's forget dropped fp(1)'s ghost entry")
	}
	// the same on the cached side: a newer copy keeps its entry
	c.PurgePBA(599)
	c.ForgetIndex(fp(599), 598)
	if e, ok := indexPeek(c, fp(599)); !ok || e.PBA != 599 {
		t.Fatalf("fp(599) = %+v, %v after a purge and another block's forget", e, ok)
	}
	c.ForgetIndex(fp(599), 599)
	if _, ok := indexPeek(c, fp(599)); ok {
		t.Fatal("forgotten entry still cached")
	}
	checkAll(t, c)
}

func TestNoRepartitionWithoutSignal(t *testing.T) {
	p := testParams(true)
	c := New(p)
	if rep := c.Tick(sim.Time(10 * sim.Second)); rep.Changed {
		t.Fatal("repartition with zero ghost hits")
	}
}

// Property: under arbitrary interleavings the budget invariant and
// ghost/live disjointness hold.
func TestControllerInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		p := testParams(true)
		c := New(p)
		now := sim.Time(0)
		for _, raw := range ops {
			id := uint64(raw % 256)
			switch raw % 5 {
			case 0:
				c.IndexLookup(fp(id))
			case 1:
				c.IndexInsert(fp(id), alloc.PBA(id))
			case 2:
				c.ReadHit(alloc.PBA(id))
			case 3:
				c.ReadInsert(alloc.PBA(id))
			case 4:
				now = now.Add(p.Interval)
				c.Tick(now)
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHistoryRecordsTrajectory(t *testing.T) {
	p := testParams(true)
	c := New(p)
	if len(c.History()) != 0 {
		t.Fatal("fresh controller has history")
	}
	for i := uint64(0); i < 1000; i++ {
		c.IndexInsert(fp(i), alloc.PBA(i))
	}
	for i := uint64(0); i < 400; i++ {
		c.IndexLookup(fp(i))
	}
	c.Tick(sim.Time(sim.Second))
	h := c.History()
	if len(h) != 1 {
		t.Fatalf("history length = %d, want 1", len(h))
	}
	if h[0].IndexFrac <= 0.5 || h[0].Time != sim.Time(sim.Second) {
		t.Fatalf("history point = %+v", h[0])
	}
	// History returns a copy
	h[0].IndexFrac = -1
	if c.History()[0].IndexFrac == -1 {
		t.Fatal("History must return a copy")
	}
}

// indexPeek reads fp's cached index entry without touching recency, hit
// statistics, or the ghost.
func indexPeek(c *Controller, fp chunk.Fingerprint) (Entry, bool) {
	if i := c.dir.find(fp); i != 0 && c.dir.at(i).list != ghostList {
		return c.dir.entry(i), true
	}
	return Entry{}, false
}
