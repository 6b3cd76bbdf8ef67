package maptable

import (
	"testing"
	"testing/quick"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/nvram"
	"github.com/pod-dedup/pod/internal/trace"
)

func TestSetLookup(t *testing.T) {
	tb := New(nil)
	tb.Set(5, 100, false)
	if pba, ok := tb.Lookup(5); !ok || pba != 100 {
		t.Fatalf("lookup = %d,%v", pba, ok)
	}
	if _, ok := tb.Lookup(6); ok {
		t.Fatal("phantom mapping")
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestRemapFreesOldBlock(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	freed := tb.Set(1, 200, false)
	if len(freed) != 1 || freed[0] != 100 {
		t.Fatalf("freed = %v, want [100]", freed)
	}
}

func TestSharedBlockNotFreedUntilLastRef(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	tb.Set(2, 100, true) // dedup: second LBA references same block
	if tb.RefCount(100) != 2 {
		t.Fatalf("refcount = %d", tb.RefCount(100))
	}
	if freed := tb.Set(1, 200, false); len(freed) != 0 {
		t.Fatalf("block with remaining refs freed: %v", freed)
	}
	if freed := tb.Set(2, 300, false); len(freed) != 1 || freed[0] != 100 {
		t.Fatalf("last deref must free: %v", freed)
	}
}

func TestPinPreventsFree(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	tb.Pin(100)
	if freed := tb.Set(1, 200, false); len(freed) != 0 {
		t.Fatalf("pinned block freed: %v", freed)
	}
	if pins := tb.PinCount(100); pins != 1 {
		t.Fatalf("%d pins, want the one taken", pins)
	}
	if reclaim := tb.Unpin(100); !reclaim {
		t.Fatal("unpin of dead block must report reclaimable")
	}
}

func TestUnpinLiveBlockNotReclaimable(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	tb.Pin(100)
	if reclaim := tb.Unpin(100); reclaim {
		t.Fatal("block with live mapping must not be reclaimable")
	}
}

func TestSharedAccounting(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	tb.Set(2, 100, true)
	tb.Set(3, 100, true)
	if tb.SharedEntries() != 2 {
		t.Fatalf("shared = %d, want 2", tb.SharedEntries())
	}
	if tb.NVRAMBytes() != 40 {
		t.Fatalf("nvram bytes = %d, want 40", tb.NVRAMBytes())
	}
	tb.Set(2, 200, false)
	tb.Set(3, 300, false)
	if tb.SharedEntries() != 0 {
		t.Fatalf("shared after remap = %d", tb.SharedEntries())
	}
	if tb.PeakSharedEntries() != 2 || tb.PeakNVRAMBytes() != 40 {
		t.Fatal("peak tracking wrong")
	}
}

func TestNegativeRefcountPanics(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Unpin(100) // never pinned
}

func TestJournalRoundTrip(t *testing.T) {
	dev := nvram.New(4096)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 100, true)
	tb.Set(3, 300, false)
	tb.Set(3, 350, false)
	tb.Set(4, 400, false)

	rt, applied, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 {
		t.Fatalf("applied = %d, want 5", applied)
	}
	for lba, want := range map[uint64]alloc.PBA{1: 100, 2: 100, 3: 350, 4: 400} {
		if pba, ok := rt.Lookup(lba); !ok || pba != want {
			t.Errorf("lba %d: %d,%v want %d", lba, pba, ok, want)
		}
	}
	if rt.RefCount(300) != 0 {
		t.Error("superseded mapping survived recovery")
	}
	if rt.RefCount(100) != 2 {
		t.Errorf("recovered refcount = %d, want 2", rt.RefCount(100))
	}
	if rt.SharedEntries() != 1 {
		t.Errorf("recovered shared = %d, want 1", rt.SharedEntries())
	}
}

// TestUnchangedSetJournalsNothing: setting an LBA to the mapping it
// already has appends no record, a changed shared flag does, and the
// journal still replays to the same table.
func TestUnchangedSetJournalsNothing(t *testing.T) {
	dev := nvram.New(4096)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 100, true)
	tail := tb.tail
	tb.Set(1, 100, false)
	tb.Set(2, 100, true)
	if tb.tail != tail {
		t.Fatalf("unchanged sets moved the journal tail %d → %d", tail, tb.tail)
	}
	tb.Set(1, 100, true)
	if tb.tail != tail+EntryBytes {
		t.Fatalf("a changed shared flag moved the tail %d → %d, want one record", tail, tb.tail)
	}
	rt, applied, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || rt.SharedEntries() != 2 || rt.RefCount(100) != 2 {
		t.Fatalf("replayed %d records to %d shared entries, refcount %d; want 3, 2, 2", applied, rt.SharedEntries(), rt.RefCount(100))
	}
}

func TestRecoveryAfterTornWrite(t *testing.T) {
	dev := nvram.New(4096)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 200, false)
	dev.ArmCrash(10) // tear the middle of the next record
	func() {
		defer func() { recover() }() // Set may not panic, but be safe
		tb.Set(3, 300, false)
	}()
	dev.Recover()

	rt, applied, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2 (torn third record discarded)", applied)
	}
	if _, ok := rt.Lookup(3); ok {
		t.Fatal("torn record must not resurrect")
	}
	if pba, ok := rt.Lookup(2); !ok || pba != 200 {
		t.Fatal("intact prefix lost")
	}
}

// journalRetired appends the record the retired unset operation wrote
// for lba: a valid checksum over a PBA word carrying flagRetired.
// journalRaw appends a record with a valid checksum for whatever lba
// and PBA word it is given, as no build's Set would write it.
func journalRaw(t *Table, lba, pbaFlags uint64) {
	encodeRecord(&t.rec, t.seedCRC, lba, pbaFlags)
	_ = t.dev.WriteAt(t.tail, t.rec[:])
	t.tail += EntryBytes
}

// TestLoadStopsAtRetiredRecord: an otherwise valid record carrying the
// retired unset bit ends the replayed prefix as a torn one does —
// neither it nor anything after it is applied.
func TestLoadStopsAtRetiredRecord(t *testing.T) { loadStopsAt(t, 1, flagRetired) }

// TestLoadStopsAtRecordPastTheBound: so does a valid record naming an
// LBA past the logical-address bound, which no Set journals.
func TestLoadStopsAtRecordPastTheBound(t *testing.T) { loadStopsAt(t, trace.LBALimit, 250) }

func loadStopsAt(t *testing.T, lba, pbaFlags uint64) {
	dev := nvram.New(4096)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 200, false)
	journalRaw(tb, lba, pbaFlags)
	tb.Set(3, 300, false)

	rt, applied, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2 (stop at the foreign record)", applied)
	}
	if pba, ok := rt.Lookup(1); !ok || pba != 100 {
		t.Fatalf("lba 1 = %d,%v: the foreign record was applied", pba, ok)
	}
	if rt.Len() != 2 {
		t.Fatalf("%d mappings recovered, want 2: a record past the foreign one was applied", rt.Len())
	}
}

// TestSetPastTheBoundPanics: requests are validated against the bound
// where they enter, so a Set past it is a bug and must not be absorbed.
func TestSetPastTheBoundPanics(t *testing.T) {
	tb := New(nil)
	tb.Set(trace.LBALimit-1, 1, false) // the last address
	defer func() {
		if recover() == nil {
			t.Fatal("Set past the logical-address bound did not panic")
		}
	}()
	tb.Set(trace.LBALimit, 1, false)
}

func TestCompactionPreservesState(t *testing.T) {
	dev := nvram.New(4096)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 200, true)
	tb.Set(1, 150, false) // supersedes
	tb.Compact()
	rt, applied, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 { // snapshot has exactly the live mappings
		t.Fatalf("applied = %d, want 2", applied)
	}
	if pba, _ := rt.Lookup(1); pba != 150 {
		t.Fatal("compaction lost latest mapping")
	}
	if rt.SharedEntries() != 1 {
		t.Fatal("compaction lost shared flag")
	}
}

func TestAutoCompactionOnFullJournal(t *testing.T) {
	// room for header + 4 records; keep only 2 live mappings and
	// update them repeatedly — auto-compaction must absorb the churn
	dev := nvram.New(16 + 4*EntryBytes)
	tb := New(dev)
	for i := 0; i < 50; i++ {
		tb.Set(1, alloc.PBA(100+i), false)
		tb.Set(2, alloc.PBA(200+i), false)
	}
	rt, _, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if pba, _ := rt.Lookup(1); pba != 149 {
		t.Fatalf("lba1 = %d, want 149", pba)
	}
	if pba, _ := rt.Lookup(2); pba != 249 {
		t.Fatalf("lba2 = %d, want 249", pba)
	}
}

func TestJournalTooSmallPanics(t *testing.T) {
	dev := nvram.New(16 + 2*EntryBytes)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 200, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when live set exceeds NVRAM")
		}
	}()
	tb.Set(3, 300, false) // 3 live entries, room for 2
}

func TestLoadBadMagic(t *testing.T) {
	dev := nvram.New(4096)
	if _, _, err := Load(dev); err == nil {
		t.Fatal("expected error on unformatted device")
	}
}

func TestStaleEpochRecordsIgnored(t *testing.T) {
	dev := nvram.New(4096)
	tb := New(dev)
	// ten records over two live entries, then a two-record snapshot
	for i := uint64(0); i < 10; i++ {
		tb.Set(i%2, alloc.PBA(1000+i), false)
	}
	tb.Compact()
	// journal bytes beyond the snapshot still contain old-epoch records
	rt, applied, err := Load(dev)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2 (stale-epoch tail must be ignored)", applied)
	}
	if rt.Len() != 2 {
		t.Fatalf("len = %d, want 2", rt.Len())
	}
}

// Property: recovery after a crash at ANY byte position yields a prefix
// of the applied operations: every recovered mapping matches the state
// after some operation count k ≤ total.
func TestCrashRecoveryPrefixProperty(t *testing.T) {
	f := func(ops []uint16, crashAt uint16) bool {
		dev := nvram.New(1 << 16)
		tb := New(dev)
		// model of states after each op
		type state map[uint64]alloc.PBA
		states := []state{{}}
		cur := state{}

		dev.ArmCrash(int64(crashAt))
		for _, raw := range ops {
			lba := uint64(raw % 8)
			pba := alloc.PBA(raw%64) + 1
			tb.Set(lba, pba, raw%2 == 0)
			cur[lba] = pba
			cp := state{}
			for k, v := range cur {
				cp[k] = v
			}
			states = append(states, cp)
		}
		dev.Recover()
		rt, _, err := Load(dev)
		if err != nil {
			return false
		}
		// recovered state must equal one of the prefix states
		for _, st := range states {
			if len(st) != rt.Len() {
				continue
			}
			match := true
			for lba, pba := range st {
				if got, ok := rt.Lookup(lba); !ok || got != pba {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: refcounts always equal the number of LBAs mapping to the
// block.
func TestRefcountConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(nil)
		model := map[uint64]alloc.PBA{}
		for _, raw := range ops {
			lba := uint64(raw % 16)
			pba := alloc.PBA(raw%8) + 1
			tb.Set(lba, pba, raw%3 == 0)
			model[lba] = pba
			counts := map[alloc.PBA]int{}
			for _, p := range model {
				counts[p]++
			}
			for p, want := range counts {
				if tb.RefCount(p) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMapTableUpdate measures the replay's dominant Map-table
// pattern: overwriting existing mappings (every re-write of an LBA
// updates its entry and journals the change).
func BenchmarkMapTableUpdate(b *testing.B) {
	const lbas = 1 << 16
	b.Run("DRAM", func(b *testing.B) {
		tb := New(nil)
		for i := uint64(0); i < lbas; i++ {
			tb.Set(i, alloc.PBA(i), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Set(uint64(i)%lbas, alloc.PBA(i), i%4 == 0)
		}
	})
	b.Run("Journaled", func(b *testing.B) {
		dev := nvram.New(1 << 30)
		tb := New(dev)
		for i := uint64(0); i < lbas; i++ {
			tb.Set(i, alloc.PBA(i), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Set(uint64(i)%lbas, alloc.PBA(i), i%4 == 0)
		}
	})
}

func BenchmarkSetJournaled(b *testing.B) {
	dev := nvram.New(1 << 24)
	tb := New(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Set(uint64(i%100000), alloc.PBA(i), false)
	}
}

func TestEachVisitsAllMappings(t *testing.T) {
	tb := New(nil)
	tb.Set(1, 100, false)
	tb.Set(2, 100, true)
	tb.Set(3, 300, false)
	seen := map[uint64]alloc.PBA{}
	shared := 0
	tb.Each(func(lba uint64, pba alloc.PBA, sh bool) bool {
		seen[lba] = pba
		if sh {
			shared++
		}
		return true
	})
	if len(seen) != 3 || seen[1] != 100 || seen[3] != 300 || shared != 1 {
		t.Fatalf("seen=%v shared=%d", seen, shared)
	}
	// early stop
	n := 0
	tb.Each(func(uint64, alloc.PBA, bool) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// A shard's table pays only for the granules the router deals it: a
// page is one 1 024-LBA routing granule (server.DefaultGranChunks), so
// a table written in every 8th granule — one shard of eight — holds an
// eighth of the map pages, and of the reverse index, a dense one holds.
func TestSparseGranulesTouchOnlyTheirPages(t *testing.T) {
	const granule, shards, lbas = 1024, 8, 1 << 20
	dense, sparse := New(nil), New(nil)
	defer dense.Release()
	defer sparse.Release()
	dense.EnableReverseIndex()
	sparse.EnableReverseIndex()
	for lba := uint64(0); lba < lbas; lba++ {
		dense.Set(lba, alloc.PBA(lba), false)
		if lba/granule%shards == 0 {
			sparse.Set(lba, alloc.PBA(lba), false)
		}
	}
	pages := func(tb *Table) (n int) {
		tb.m.pages.Each(func(uint64, *mapPage) bool { n++; return true })
		return n
	}
	if d, s := pages(dense), pages(sparse); s*shards != d {
		t.Errorf("map pages: sparse table holds %d, dense %d; want 1/%d", s, d, shards)
	}
	if d, s := dense.ReverseIndexBytes(), sparse.ReverseIndexBytes(); s*shards != d {
		t.Errorf("reverse index: sparse table holds %d B, dense %d B; want 1/%d", s, d, shards)
	}
}

// Growing a page directory is amortised: setting ascending keys across
// P pages allocates the P pages and the one trace.Pages leaf they share,
// where a directory re-grown for each page is one more allocation per
// page.
func TestPageDirectoryGrowthIsAmortised(t *testing.T) {
	const P = 64
	bound := float64(P + 1 + 4)
	if avg := testing.AllocsPerRun(3, func() {
		var m pagedMap
		for k := uint64(0); k < P*tblPageSize; k++ {
			m.set(k, 1)
		}
	}); avg > bound {
		t.Errorf("map: %.0f allocations for %d pages, want at most %.0f", avg, P, bound)
	}
	if avg := testing.AllocsPerRun(3, func() {
		var c pagedCount
		for k := uint64(0); k < P*tblPageSize; k++ {
			c.add(k, 1)
		}
	}); avg > bound {
		t.Errorf("counts: %.0f allocations for %d pages, want at most %.0f", avg, P, bound)
	}
}
