package engine

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

func testBase(t testing.TB) *Base {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	return NewBase(Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 1 << 20,
	})
}

// TestAdSize: an ad is a fingerprint, a block and a flag, three words,
// and every write request carries its chunks' ads to the tier: a field
// added here grows them all.
func TestAdSize(t *testing.T) {
	if n := unsafe.Sizeof(Ad{}); n != 24 {
		t.Fatalf("an ad is %d B, want 24", n)
	}
}

func TestNewBaseValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil array", func() { NewBase(Config{MemoryBytes: 1}) })
	mustPanic("no memory", func() {
		disks := []*disk.Disk{disk.New(disk.DefaultParams(64)), disk.New(disk.DefaultParams(64)), disk.New(disk.DefaultParams(64))}
		NewBase(Config{Array: raid.New(raid.RAID5, disks, 16)})
	})
	mustPanic("no index zone", func() { // 16 data blocks: 16/32 rounds to a zone of none
		NewBase(Config{Array: raid.New(raid.RAID0, []*disk.Disk{disk.New(disk.DefaultParams(16))}, 16), MemoryBytes: 1 << 20})
	})
	mustPanic("past the content model's bound", func() { // 2^28 + 16 data blocks; pod.New and podsim refuse it
		NewBase(Config{Array: raid.New(raid.RAID0, []*disk.Disk{disk.New(disk.DefaultParams(trace.LBALimit + 16))}, 16), MemoryBytes: 1 << 20})
	})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.IndexFrac != 0.5 || c.Threshold != 3 || c.IDedupThreshold != 8 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Fingerprinter == nil || c.HashWorkers != 1 {
		t.Fatal("fingerprinter defaults wrong")
	}
}

func TestWriteFreshContiguous(t *testing.T) {
	b := testBase(t)
	req := &trace.Request{Op: trace.Write, LBA: 10, N: 4, Content: []chunk.ContentID{1, 2, 3, 4}}
	done, pbas, _ := b.WriteFresh(0, req, []int{0, 1, 2, 3}, chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false))
	if done <= 0 || len(pbas) != 4 {
		t.Fatalf("done=%v pbas=%v", done, pbas)
	}
	for i := 1; i < 4; i++ {
		if pbas[i] != pbas[i-1]+1 {
			t.Fatal("fresh write must allocate contiguously")
		}
	}
	for i := 0; i < 4; i++ {
		if pba, ok := b.Map.Lookup(10 + uint64(i)); !ok || pba != pbas[i] {
			t.Fatal("mapping missing")
		}
		if id, ok := b.Store.Read(pbas[i]); !ok || id != chunk.ContentID(i+1) {
			t.Fatal("content missing")
		}
	}
	if b.St.ChunksWritten != 4 {
		t.Fatalf("chunks written = %d", b.St.ChunksWritten)
	}
}

func TestWriteFreshEmptyPositions(t *testing.T) {
	b := testBase(t)
	req := &trace.Request{Op: trace.Write, LBA: 0, N: 1, Content: []chunk.ContentID{1}}
	done, pbas, _ := b.WriteFresh(100, req, nil, nil)
	if done != 100 || pbas != nil {
		t.Fatal("empty write must be a no-op")
	}
}

func TestTryDedupeValidation(t *testing.T) {
	b := testBase(t)
	req := &trace.Request{Op: trace.Write, LBA: 0, N: 1, Content: []chunk.ContentID{42}}
	_, pbas, _ := b.WriteFresh(0, req, []int{0}, chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false))

	// valid dedup
	if !b.TryDedupe(100, pbas[0], 42) {
		t.Fatal("matching dedup must succeed")
	}
	if b.Map.RefCount(pbas[0]) != 2 {
		t.Fatal("refcount wrong")
	}
	// content mismatch: must refuse
	if b.TryDedupe(200, pbas[0], 43) {
		t.Fatal("mismatched dedup must fail")
	}
	// unallocated block: must refuse
	if b.TryDedupe(300, 9999, 42) {
		t.Fatal("dedup to unallocated block must fail")
	}
	if b.St.ChunksDeduped != 1 {
		t.Fatalf("deduped = %d", b.St.ChunksDeduped)
	}
}

func TestFreeBlocksPurgesEverywhere(t *testing.T) {
	b := testBase(t)

	req := &trace.Request{Op: trace.Write, LBA: 0, N: 1, Content: []chunk.ContentID{1}}
	chs := chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false)
	_, pbas, _ := b.WriteFresh(0, req, []int{0}, chs)
	b.IC.ReadInsert(pbas[0])
	b.IC.IndexInsert(chs[0].FP, pbas[0])
	b.Exact.Put(chs[0].FP, pbas[0])
	other := chunk.ContentID(2).Fingerprint()
	b.Exact.Put(other, pbas[0]+7)

	freed := b.Map.Set(0, pbas[0]+1, false) // an overwrite elsewhere drops the last reference
	b.FreeBlocks(freed)
	if _, ok := b.Exact.Get(chs[0].FP); ok {
		t.Fatal("freed block still in the exact table")
	}
	if pba, ok := b.Exact.Get(other); !ok || pba != pbas[0]+7 || b.Exact.Len() != 1 {
		t.Fatalf("the exact table lost another block's entry: %d,%v, %d entries", pba, ok, b.Exact.Len())
	}
	if b.IC.ReadHit(pbas[0]) {
		t.Fatal("freed block still in read cache")
	}
	if _, ok := b.IC.IndexLookup(chs[0].FP); ok {
		t.Fatal("freed block still indexed")
	}
	if b.Alloc.Used() != 0 {
		t.Fatal("allocator still holds the block")
	}
}

// CheckConsistency holds the hot index to what FreeBlocks' forget by
// content relies on: every entry binds a live block holding its
// fingerprint's content.
func TestCheckConsistencyAuditsTheIndex(t *testing.T) {
	b := testBase(t)
	req := &trace.Request{Op: trace.Write, LBA: 0, N: 2, Content: []chunk.ContentID{1, 2}}
	chs := chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false)
	_, pbas, _ := b.WriteFresh(0, req, []int{0, 1}, chs)
	b.IC.IndexInsert(chs[0].FP, pbas[0])
	b.IC.IndexInsert(chs[1].FP, pbas[0]) // content 2 bound to content 1's block
	if err := b.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "hot index") {
		t.Fatalf("an entry binding a block of other content: %v", err)
	}
	b.IC.IndexInsert(chs[1].FP, pbas[1])
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// block 1 freed behind the index's back: its entry is stale
	for _, pba := range b.Map.Set(1, pbas[0], false) {
		b.Alloc.Free(pba, 1)
		b.Store.Free(pba)
	}
	if err := b.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "hot index") {
		t.Fatalf("an entry binding a freed block: %v", err)
	}
}

func TestReadMappedCoalescing(t *testing.T) {
	b := testBase(t)
	// write 8 contiguous chunks
	ids := make([]chunk.ContentID, 8)
	pos := make([]int, 8)
	for i := range ids {
		ids[i] = chunk.ContentID(i + 1)
		pos[i] = i
	}
	req := &trace.Request{Op: trace.Write, LBA: 0, N: 8, Content: ids}
	b.WriteFresh(0, req, pos, chunk.SplitInto(nil, ids, chunk.SyntheticFingerprinter{}, false))

	read := &trace.Request{Time: sim.Time(sim.Second), Op: trace.Read, LBA: 0, N: 8}
	rt, _ := b.ReadMapped(read, false)
	if rt <= 0 {
		t.Fatal("read must take time")
	}
	if b.St.ReadIOs != 1 {
		t.Fatalf("contiguous read issued %d IOs, want 1", b.St.ReadIOs)
	}
	if b.St.ReadAmplifiedReqs != 0 {
		t.Fatal("contiguous read must not count as amplified")
	}

	// second read: fully cached
	read2 := &trace.Request{Time: sim.Time(2 * sim.Second), Op: trace.Read, LBA: 0, N: 8}
	rt2, _ := b.ReadMapped(read2, false)
	if rt2 != MemHitUS {
		t.Fatalf("cached read rt = %v, want %d", rt2, MemHitUS)
	}
	if b.St.CacheHits != 8 {
		t.Fatalf("cache hits = %d", b.St.CacheHits)
	}
}

func TestReadMappedFragmentationCounted(t *testing.T) {
	b := testBase(t)
	// write two separate extents, then map alternating LBAs to them
	mk := func(lba uint64, id chunk.ContentID) alloc.PBA {
		req := &trace.Request{Op: trace.Write, LBA: lba, N: 1, Content: []chunk.ContentID{id}}
		_, pbas, _ := b.WriteFresh(0, req, []int{0}, chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false))
		return pbas[0]
	}
	mk(0, 1)
	mk(1000, 2) // separated allocation padding
	mk(1, 3)
	// LBAs 0 and 1 now map to non-adjacent physical blocks
	read := &trace.Request{Time: sim.Time(sim.Second), Op: trace.Read, LBA: 0, N: 2}
	b.ReadMapped(read, false)
	if b.St.ReadIOs != 2 {
		t.Fatalf("fragmented read issued %d IOs, want 2", b.St.ReadIOs)
	}
	if b.St.ReadAmplifiedReqs != 1 {
		t.Fatal("fragmented read must count as amplified")
	}
}

func TestIndexZoneIO(t *testing.T) {
	b := testBase(t)
	done, _ := b.IndexZoneIO(0, 3)
	if done <= 0 {
		t.Fatal("index lookups must take time")
	}
	if b.St.IndexDiskIOs != 3 {
		t.Fatalf("index IOs = %d", b.St.IndexDiskIOs)
	}
	if z, _ := b.IndexZoneIO(100, 0); z != 100 {
		t.Fatal("zero lookups must be free")
	}
}

func TestStatsDerived(t *testing.T) {
	s := NewStats()
	if s.TotalRT() != 0 {
		t.Fatal("empty TotalRT should be 0")
	}
	s.WriteRT.Add(1000)
	s.ReadRT.Add(3000)
	if s.TotalRT() != 2000 {
		t.Fatalf("TotalRT = %f", s.TotalRT())
	}
	s.Writes = 4
	s.WritesRemoved = 1
	if s.WriteRemovalPct() != 25 {
		t.Fatal("removal pct wrong")
	}
	s.ChunksDeduped, s.ChunksWritten = 1, 3
	if s.DedupRatioPct() != 25 {
		t.Fatal("dedup pct wrong")
	}
	s.CacheHits, s.CacheMisses = 1, 1
	if s.CacheHitPct() != 50 {
		t.Fatal("cache pct wrong")
	}
	s.Reset()
	if s.Writes != 0 || s.WriteRT.N() != 0 {
		t.Fatal("reset failed")
	}
}

// Property: WriteFresh + Map always leaves every written LBA resolvable
// to its content, for arbitrary position subsets.
func TestWriteFreshProperty(t *testing.T) {
	f := func(lbaRaw uint16, mask uint8) bool {
		b := testBase(t)
		n := 8
		ids := make([]chunk.ContentID, n)
		for i := range ids {
			ids[i] = chunk.ContentID(1000 + i)
		}
		var positions []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				positions = append(positions, i)
			}
		}
		if len(positions) == 0 {
			return true
		}
		req := &trace.Request{Op: trace.Write, LBA: uint64(lbaRaw), N: n, Content: ids}
		_, pbas, _ := b.WriteFresh(0, req, positions, chunk.SplitInto(nil, ids, chunk.SyntheticFingerprinter{}, false))
		for k, pos := range positions {
			pba, ok := b.Map.Lookup(uint64(lbaRaw) + uint64(pos))
			if !ok || pba != pbas[k] {
				return false
			}
			id, ok := b.Store.Read(pba)
			if !ok || id != ids[pos] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVerifyWriteCatchesCorruption(t *testing.T) {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	b := NewBase(Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 1 << 20,
		Verify:      true,
	})
	req := &trace.Request{Op: trace.Write, LBA: 0, N: 1, Content: []chunk.ContentID{7}}
	chs := chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false)
	b.WriteFresh(0, req, []int{0}, chs)
	b.VerifyWrite(req, chs) // consistent: fine

	// sabotage the mapping and expect the verifier to catch it
	pba, _ := b.Map.Lookup(0)
	b.Store.Write(pba, 999)
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyWrite must catch content divergence")
		}
	}()
	b.VerifyWrite(req, chs)
}

func TestVerifyWriteCatchesMissingMapping(t *testing.T) {
	b := testBase(t)
	b.Cfg.Verify = true
	req := &trace.Request{Op: trace.Write, LBA: 5, N: 1, Content: []chunk.ContentID{7}}
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyWrite must catch unmapped writes")
		}
	}()
	b.VerifyWrite(req, chunk.SplitInto(nil, req.Content, chunk.SyntheticFingerprinter{}, false)) // never written
}

func TestRecoverWithoutNVRAM(t *testing.T) {
	b := testBase(t)
	if _, err := b.Recover(); err == nil {
		t.Fatal("recovery without NVRAM must fail")
	}
	if b.NVRAM() != nil {
		t.Fatal("testBase should have no NVRAM device")
	}
}

func TestApplyRepartitionReadSwapInsChargeIO(t *testing.T) {
	b := testBase(t)
	rep := icacheRepartition(true, []alloc.PBA{10, 11, 12, 500})
	b.ApplyRepartition(1000, rep)
	if b.St.SwapInIOs == 0 {
		t.Fatal("read swap-ins must charge background I/O")
	}
	// non-changed repartitions are free
	before := b.St.SwapInIOs
	b.ApplyRepartition(2000, icacheRepartition(false, nil))
	if b.St.SwapInIOs != before {
		t.Fatal("no-op repartition charged I/O")
	}
}

// wiringTier is a tier seat that only remembers what was paroled;
// wiringTask a background task whose RecoverReset touches nothing.
type wiringTier struct{ paroled []alloc.PBA }

func (w *wiringTier) Advertise([]Ad)            {}
func (w *wiringTier) Hint(*WriteOp)             {}
func (w *wiringTier) RemoteRef(alloc.PBA, bool) {}
func (w *wiringTier) Parole(pba alloc.PBA)      { w.paroled = append(w.paroled, pba) }
func (w *wiringTier) OwnerDown(int) bool        { return false }

type wiringTask struct{ resets int }

func (w *wiringTask) Tick(sim.Time)  {}
func (w *wiringTask) Flush(sim.Time) {}
func (w *wiringTask) RecoverReset()  { w.resets++ }

// TestRecoveryCarriesWiring: recovery replaces the Map table and the
// iCache, and Base alone must hand the new objects what was attached to
// the old ones — the tier's parole handler, the reverse index a scanner
// or a tier agent enabled, stream mode with its configured shares. The
// features here are stand-ins that re-attach nothing, so a carry-over
// Base forgets shows up as a missing parole, a Referrers panic or a
// classic-mode iCache; a second crash must find everything in place
// again.
func TestRecoveryCarriesWiring(t *testing.T) {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	shares := map[uint32]float64{1: 0.75, 2: 0.25}
	b := NewBase(Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 1 << 20,
		NVRAMBytes:  1 << 20,
		Streams:     StreamParams{Enabled: true, StaticShares: shares},
	})
	tier, task := &wiringTier{}, &wiringTask{}
	b.SetTier(tier)
	b.Background = task
	b.Map.EnableReverseIndex()

	// two LBAs share block 7; block 9 has one referrer
	b.Alloc.Reserve(7, 1)
	b.Alloc.Reserve(9, 1)
	b.Store.Write(7, 70)
	b.Store.Write(9, 90)
	b.Map.Set(100, 7, true)
	b.Map.Set(200, 7, true)
	b.Map.Set(300, 9, true)

	for crash := 1; crash <= 2; crash++ {
		if _, err := b.Recover(); err != nil {
			t.Fatal(err)
		}
		if task.resets != crash {
			t.Fatalf("crash %d: background task reset %d times", crash, task.resets)
		}
		// reverse index: alive and rebuilt over the recovered mappings
		refs := b.Map.Referrers(nil, 7)
		if len(refs) != 2 || refs[0]+refs[1] != 300 {
			t.Fatalf("crash %d: referrers of block 7 = %v, want 100 and 200", crash, refs)
		}
		// parole handler: a pinned block losing its last reference
		// reaches the seated tier
		b.Map.Pin(9)
		b.Map.Set(300, 7, true)
		if len(tier.paroled) != crash || tier.paroled[crash-1] != 9 {
			t.Fatalf("crash %d: paroled %v, want block 9 to reach the tier", crash, tier.paroled)
		}
		b.Map.Set(300, 9, true) // put it back (journaled) for the next round
		b.Map.Unpin(9)
		// stream mode, with the configured split: each stream indexes
		// one of the two live blocks under what it holds
		blk := alloc.PBA(7)
		for id := range shares {
			c, _ := b.Store.Read(blk)
			b.IC.IndexInsertS(id, c.Fingerprint(), blk)
			blk = 9
		}
		gauges := b.Reg.Snapshot().Gauges
		for id, share := range shares {
			name := metrics.Labeled("icache_stream_quota", "stream", strconv.Itoa(int(id)))
			got, ok := gauges[name]
			if want := int64(share * float64(b.IC.IndexCapTotal())); !ok || got != want {
				t.Fatalf("crash %d: %s = %d (published %v), want %d", crash, name, got, ok, want)
			}
		}
		if err := b.CheckConsistency(); err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
	}
}
