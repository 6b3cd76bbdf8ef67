// Package maptable implements POD's Map table: the LBA→PBA indirection
// layer shared by every deduplication engine in this repository.
//
// The mapping is m-to-1 — many logical block addresses may reference
// one physical block — so each physical block carries a reference
// count; a block is released to the allocator exactly when its last
// logical reference disappears. This realizes the paper's §III-B
// protection ("the Count variable is also used to prevent the
// referenced data blocks from being modified or deleted"): the engines
// purge every index/cache entry naming a reclaimed block and
// re-validate content at dedup time, while the optional Pin/Unpin API
// offers the paper's literal pinning scheme for callers that want it.
// Logical addresses are bounded — every LBA is below trace.LBALimit, 1 TiB
// of 4 KiB chunks — so the table indexes them directly.
//
// To survive power failure the table journals every mutation into
// simulated NVRAM as 20-byte records (the entry size the paper reports
// in §IV-D2): 8 bytes LBA, 8 bytes PBA+flags, 4 bytes epoch-seeded
// CRC-32. Recovery scans the journal and stops at the first record
// whose CRC fails — a torn tail record is thereby discarded, giving
// prefix consistency. Compaction bumps the journal epoch, which is
// mixed into every CRC, so stale records from an earlier generation can
// never be mistaken for live ones.
package maptable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/nvram"
	"github.com/pod-dedup/pod/internal/trace"
)

// EntryBytes is the journal record size — 20 bytes per Map-table entry,
// matching the paper's memory-overhead accounting.
const EntryBytes = 20

const (
	headerBytes = 16
	magic       = 0x504F4431 // "POD1"

	// flagRetired is the bit the retired unset record carried: no build
	// writes it, and Load stops at a record that has it as at a torn one.
	flagRetired = 1 << 63
	flagShared  = 1 << 62
	pbaMask     = (1 << 62) - 1
)

// The forward map, reference counts, and pin counts are direct-mapped
// paged arrays rather than hash maps: LBAs come from a bump allocator
// over the trace footprint and PBAs from the block allocator, so both
// key spaces are dense, and at trace scale the hash maps' probing and
// growth rehashes were the simulator's single largest CPU consumer.
// Every LBA is below trace.LBALimit (Set panics past it, Load stops at
// a record past it), so the forward map and the reverse index's links
// are pages alone; a block at or above pagedCap — every remote-encoded
// canonical — spills its counters to a map. Pages are pooled across
// table lifetimes like the content model's (trace.Volume);
// Release returns them.
//
// A page is one routing granule wide (trace.PageBits), and the page
// directories are trace.Pages: a shard's table pays for the granules
// the router deals it, and a directory for the spans of keys it holds.
const (
	tblPageBits = trace.PageBits
	tblPageSize = 1 << tblPageBits
	tblPageMask = tblPageSize - 1

	// pagedCap bounds the direct-mapped key range: the logical address
	// space, 2^28 chunks = 1 TiB.
	pagedCap = trace.LBALimit
)

type mapPage [tblPageSize]uint64
type cntPage [tblPageSize]int32

var (
	mapPagePool = sync.Pool{New: func() any { return new(mapPage) }}
	cntPagePool = sync.Pool{New: func() any { return new(cntPage) }}
)

// pagedMap holds LBA → word (0 = absent; a key past the pages reads as
// absent); n counts live entries.
type pagedMap struct {
	pages trace.Pages[mapPage]
	n     int
}

func (p *pagedMap) get(k uint64) uint64 {
	if page := p.pages.Page(k >> tblPageBits); page != nil {
		return page[k&tblPageMask]
	}
	return 0
}

func (p *pagedMap) set(k, v uint64) {
	at := p.pages.Slot(k >> tblPageBits)
	page := *at
	if page == nil {
		page = mapPagePool.Get().(*mapPage)
		*at = page
	}
	slot := &page[k&tblPageMask]
	if *slot == 0 {
		p.n++
	}
	*slot = v
}

func (p *pagedMap) del(k uint64) {
	page := p.pages.Page(k >> tblPageBits)
	if page == nil {
		return
	}
	slot := &page[k&tblPageMask]
	if *slot != 0 {
		p.n--
		*slot = 0
	}
}

// each visits live entries in key order. No caller depends on
// ordering; the deterministic page walk simply replaces the old map's
// randomized one.
func (p *pagedMap) each(fn func(k, v uint64) bool) {
	p.pages.Each(func(pg uint64, page *mapPage) bool {
		base := pg << tblPageBits
		for i, v := range page {
			if v != 0 && !fn(base+uint64(i), v) {
				return false
			}
		}
		return true
	})
}

func (p *pagedMap) release() {
	p.pages.Clear(func(page *mapPage) {
		clear(page[:])
		mapPagePool.Put(page)
	})
	p.n = 0
}

// pagedCount holds a small signed counter per block (refcounts, pins,
// reverse-index heads); zero means absent. n counts nonzero entries.
// Keys at or above pagedCap spill to far.
type pagedCount struct {
	pages trace.Pages[cntPage]
	far   map[uint64]int32
	n     int
}

func (p *pagedCount) get(k uint64) int32 {
	if k < pagedCap {
		if page := p.pages.Page(k >> tblPageBits); page != nil {
			return page[k&tblPageMask]
		}
		return 0
	}
	return p.far[k]
}

// add adjusts key k by d and returns the new value, maintaining the
// nonzero-entry count.
func (p *pagedCount) add(k uint64, d int32) int32 {
	var old int32
	if k < pagedCap {
		at := p.pages.Slot(k >> tblPageBits)
		page := *at
		if page == nil {
			page = cntPagePool.Get().(*cntPage)
			*at = page
		}
		slot := &page[k&tblPageMask]
		old = *slot
		*slot = old + d
	} else {
		if p.far == nil {
			p.far = make(map[uint64]int32)
		}
		if old = p.far[k]; old+d == 0 {
			delete(p.far, k)
		} else {
			p.far[k] = old + d
		}
	}
	switch v := old + d; {
	case old == 0 && v != 0:
		p.n++
	case old != 0 && v == 0:
		p.n--
	}
	return old + d
}

func (p *pagedCount) release() {
	p.pages.Clear(func(page *cntPage) {
		clear(page[:])
		cntPagePool.Put(page)
	})
	p.far = nil
	p.n = 0
}

// each visits every nonzero counter; return false from fn to stop.
// Dense keys come in ascending order, far keys in map order.
func (p *pagedCount) each(fn func(k uint64, v int32) bool) {
	if !p.pages.Each(func(pg uint64, page *cntPage) bool {
		base := pg << tblPageBits
		for i, v := range page {
			if v != 0 && !fn(base+uint64(i), v) {
				return false
			}
		}
		return true
	}) {
		return
	}
	for k, v := range p.far {
		if !fn(k, v) {
			return
		}
	}
}

const (
	encPresent = 1 << 63
	encShared  = 1 << 62
)

func encodeMapping(mp mapping) uint64 {
	v := uint64(mp.pba) | encPresent
	if mp.shared {
		v |= encShared
	}
	return v
}

func decodeMapping(v uint64) mapping {
	return mapping{pba: alloc.PBA(v & pbaMask), shared: v&encShared != 0}
}

// Table is the Map table.
type Table struct {
	m      pagedMap
	refs   pagedCount
	pins   pagedCount
	shared int64 // live mappings created by deduplication
	peak   int64 // high-water mark of shared mappings

	// optional reverse index (PBA → referring LBAs), maintained only
	// when the out-of-line scanner needs to rewire a block's referrers
	rev *revIndex

	dev     *nvram.Device
	epoch   uint32
	seedCRC uint32 // crc32 of the little-endian epoch, recomputed per epoch
	tail    int    // next journal append offset

	// rec is the journal-record scratch buffer: journaling is strictly
	// sequential per table, and the device copies the bytes, so one
	// buffer serves every append without escaping to the heap.
	rec [EntryBytes]byte

	// freedScratch backs the slices returned by Set/dropMapping;
	// it is valid only until the table's next mutating call.
	freedScratch []alloc.PBA

	// OnParole, when set, is invoked whenever a block's last logical
	// reference disappears while a pin suppresses its reclamation — the
	// block survives as a pinned, unmapped "parolee". The global
	// fingerprint tier uses the hook to start recalling cross-shard
	// hints so the block can eventually be freed. The handler runs
	// inside the mutating call and must not re-enter the table.
	OnParole func(alloc.PBA)
}

type mapping struct {
	pba    alloc.PBA
	shared bool
}

// New returns an empty table journaling into dev; dev may be nil for a
// volatile table (used by engines that do not model persistence).
func New(dev *nvram.Device) *Table {
	t := &Table{
		dev:  dev,
		tail: headerBytes,
	}
	t.seedCRC = epochSeedCRC(t.epoch)
	if dev != nil {
		t.writeHeader()
	}
	return t
}

// epochSeedCRC seeds the record CRC with the journal epoch so stale
// records from an earlier generation can never pass validation. The
// seed depends only on the epoch, so it is computed once per epoch
// rather than once per record.
func epochSeedCRC(epoch uint32) uint32 {
	var seed [4]byte
	binary.LittleEndian.PutUint32(seed[:], epoch)
	return crc32.ChecksumIEEE(seed[:])
}

// Len reports the number of mapped LBAs.
func (t *Table) Len() int { return t.m.n }

// Release returns the table's pages to the process-wide pools; the
// table must not be used afterwards. The replay harness calls it at
// engine teardown via engine.Base.Release.
func (t *Table) Release() {
	t.m.release()
	t.refs.release()
	t.pins.release()
	if t.rev != nil {
		t.rev.head.release()
		t.rev.link.release()
		t.rev = nil
	}
}

// revIndex is the reverse index, intrusive in the table's own key
// spaces: the LBAs mapped to a local block form a doubly linked chain
// through one link word per LBA, entered through one head per block,
// and both live in the pooled paged arrays the forward map and the
// counters use. Adding and removing a referrer relink in O(1) — nothing
// is hashed and nothing allocated per block, where the map of sets this
// replaces paid two hash operations and, per newly referenced block, a
// map. A link names an LBA as lba+1 in 32 bits (0 = none), which
// reaches every LBA.
//
// Remote-encoded canonicals are not chained: only the out-of-line pass
// rewires a block's referrers, and the block it rewires them away from
// is always local, so their chains would be kept up on every
// cross-shard dedupe and read by nothing.
type revIndex struct {
	head pagedCount // block → its newest chained referrer, as lba+1
	// link holds next<<32 | prev per chained LBA. The first entry of a
	// chain names itself as prev, so a chained LBA's word is never zero
	// and link.n counts the chained LBAs.
	link pagedMap
}

const linkMask = 1<<32 - 1

// add makes lba the first referrer of pba's chain.
func (r *revIndex) add(pba alloc.PBA, lba uint64) {
	me := lba + 1
	first := uint64(r.head.get(uint64(pba)))
	r.link.set(lba, first<<32|me)
	if first != 0 {
		r.link.set(first-1, r.link.get(first-1)&^linkMask|me)
	}
	r.head.add(uint64(pba), int32(me)-int32(first)) // head = me
}

// remove unlinks lba from pba's chain.
func (r *revIndex) remove(pba alloc.PBA, lba uint64) {
	me := lba + 1
	w := r.link.get(lba)
	next, prev := w>>32, w&linkMask
	r.link.del(lba)
	if prev == me {
		// first of its chain: the head moves on, and the new first
		// names itself
		r.head.add(uint64(pba), int32(next)-int32(me)) // head = next
		prev = next
	} else {
		r.link.set(prev-1, next<<32|r.link.get(prev-1)&linkMask)
	}
	if next != 0 {
		r.link.set(next-1, r.link.get(next-1)&^linkMask|prev)
	}
}

// ReverseIndexBytes reports the memory the reverse index holds (0 while
// it is not enabled): its pages, plus an estimate of 16 bytes per head
// in the spill map.
func (t *Table) ReverseIndexBytes() int64 {
	r := t.rev
	if r == nil {
		return 0
	}
	var n int64
	r.link.pages.Each(func(uint64, *mapPage) bool { n += tblPageSize * 8; return true })
	r.head.pages.Each(func(uint64, *cntPage) bool { n += tblPageSize * 4; return true })
	return n + 16*int64(len(r.head.far))
}

// EnableReverseIndex starts maintaining the PBA → LBAs reverse index
// (required by Referrers), building it from any existing mappings. A
// table loaded in place of one that had it (Load's prev) comes with it.
func (t *Table) EnableReverseIndex() {
	if t.rev != nil {
		return
	}
	t.rev = new(revIndex)
	t.m.each(func(lba, v uint64) bool {
		if pba := decodeMapping(v).pba; !alloc.IsRemote(pba) {
			t.rev.add(pba, lba)
		}
		return true
	})
}

// Referrers appends the LBAs currently mapped to pba, a local block, to
// dst, each once, in no particular order; a remote-encoded canonical
// has none listed (see revIndex). It panics unless EnableReverseIndex
// was called.
func (t *Table) Referrers(dst []uint64, pba alloc.PBA) []uint64 {
	if t.rev == nil {
		panic("maptable: Referrers requires EnableReverseIndex")
	}
	for v := uint64(t.rev.head.get(uint64(pba))); v != 0; v = t.rev.link.get(v-1) >> 32 {
		dst = append(dst, v-1)
	}
	return dst
}

// SharedEntries reports the number of live mappings that were created
// by deduplication (write data not written because a copy existed).
func (t *Table) SharedEntries() int64 { return t.shared }

// PeakSharedEntries reports the high-water mark of SharedEntries.
func (t *Table) PeakSharedEntries() int64 { return t.peak }

// NVRAMBytes reports the paper's Map-table memory-overhead metric:
// live dedup-created entries × 20 bytes.
func (t *Table) NVRAMBytes() int64 { return t.shared * EntryBytes }

// PeakNVRAMBytes reports the high-water mark of NVRAMBytes.
func (t *Table) PeakNVRAMBytes() int64 { return t.peak * EntryBytes }

// Lookup returns the physical block backing lba.
func (t *Table) Lookup(lba uint64) (alloc.PBA, bool) {
	v := t.m.get(lba)
	if v == 0 {
		return 0, false
	}
	return alloc.PBA(v & pbaMask), true
}

// RefCount reports the logical-reference count of pba (pins excluded).
func (t *Table) RefCount(pba alloc.PBA) int { return int(t.refs.get(uint64(pba))) }

// Set maps lba to pba. shared marks mappings created by deduplication
// (the data was not written; it references a pre-existing copy). The
// returned slice lists physical blocks whose last reference disappeared
// with this update — the caller returns them to the allocator. The
// slice aliases table-owned scratch and is valid only until the next
// mutating call (Set/Compact/Load); callers must consume it
// immediately rather than retain it. lba must be below trace.LBALimit:
// requests are validated against it where they enter, so one past it
// is a bug, and Set panics.
func (t *Table) Set(lba uint64, pba alloc.PBA, shared bool) []alloc.PBA {
	if uint64(pba) > pbaMask {
		panic(fmt.Sprintf("maptable: pba %d exceeds encodable range", pba))
	}
	if lba >= trace.LBALimit {
		panic(fmt.Sprintf("maptable: lba %d past the logical-address bound %d", lba, uint64(trace.LBALimit)))
	}
	if v := t.m.get(lba); v != 0 && alloc.PBA(v&pbaMask) == pba {
		// same-location update: never let the refcount dip to zero
		// transiently (the block is still mapped). Only a changed
		// shared flag is journaled: the record of an unchanged mapping
		// would replay to the table the journal already holds.
		if wasShared := v&encShared != 0; wasShared != shared {
			if wasShared {
				t.shared--
			} else {
				t.shared++
				if t.shared > t.peak {
					t.peak = t.shared
				}
			}
			t.m.set(lba, encodeMapping(mapping{pba: pba, shared: shared}))
			t.journal(lba, uint64(pba), shared)
		}
		return nil
	}
	freed := t.dropMapping(lba)
	t.m.set(lba, encodeMapping(mapping{pba: pba, shared: shared}))
	t.refs.add(uint64(pba), 1)
	if t.rev != nil && !alloc.IsRemote(pba) {
		t.rev.add(pba, lba)
	}
	if shared {
		t.shared++
		if t.shared > t.peak {
			t.peak = t.shared
		}
	}
	t.journal(lba, uint64(pba), shared)
	return freed
}

// dropMapping removes lba's current mapping (if any) and returns the
// PBA if its reference count reached zero and it is unpinned. The
// returned slice aliases freedScratch.
func (t *Table) dropMapping(lba uint64) []alloc.PBA {
	v := t.m.get(lba)
	if v == 0 {
		return nil
	}
	mp := decodeMapping(v)
	t.m.del(lba)
	if t.rev != nil && !alloc.IsRemote(mp.pba) {
		t.rev.remove(mp.pba, lba)
	}
	if mp.shared {
		t.shared--
	}
	left := t.refs.add(uint64(mp.pba), -1)
	if left < 0 {
		panic("maptable: negative refcount")
	}
	if left == 0 {
		if t.pins.get(uint64(mp.pba)) == 0 {
			t.freedScratch = append(t.freedScratch[:0], mp.pba)
			return t.freedScratch
		}
		if t.OnParole != nil {
			t.OnParole(mp.pba)
		}
	}
	return nil
}

// CheckConsistency verifies the table's internal invariants: every
// physical block's reference count equals the number of live mappings
// naming it, the shared-entry counter matches the shared flags, and the
// reverse index (when enabled) mirrors the forward map exactly. It
// returns a descriptive error for the first violation found, or nil.
// Exposed for property tests over the m-to-1 mapping.
func (t *Table) CheckConsistency() error {
	refs := make(map[alloc.PBA]int32, t.refs.n)
	var shared int64
	t.m.each(func(lba, v uint64) bool {
		mp := decodeMapping(v)
		refs[mp.pba]++
		if mp.shared {
			shared++
		}
		return true
	})
	if shared != t.shared {
		return fmt.Errorf("maptable: shared counter %d, but %d mappings carry the flag", t.shared, shared)
	}
	if len(refs) != t.refs.n {
		return fmt.Errorf("maptable: %d referenced blocks, refcount table has %d", len(refs), t.refs.n)
	}
	for pba, n := range refs {
		if t.refs.get(uint64(pba)) != n {
			return fmt.Errorf("maptable: pba %d refcount %d, but %d mappings reference it", pba, t.refs.get(uint64(pba)), n)
		}
	}
	if t.rev != nil {
		return t.rev.check(&t.m, refs)
	}
	return nil
}

// check audits the index against the forward map, given each block's
// (already verified) reference count: every block's chain is walked
// once — each entry must map to the block and name its predecessor —
// a local block's chain must number its references, a remote-encoded
// one's must be empty, and no head or link word may be left over.
// Entries that all map to the block, are distinct (the walk is bounded,
// so a cycle fails) and number its references are exactly its
// referrers. O(mappings) in all.
func (r *revIndex) check(m *pagedMap, refs map[alloc.PBA]int32) error {
	heads, chained := 0, 0
	for pba, want := range refs {
		if alloc.IsRemote(pba) {
			want = 0
		}
		first := uint64(r.head.get(uint64(pba)))
		if first != 0 {
			heads++
		}
		n := int32(0)
		for v, prev := first, first; v != 0; {
			if n++; n > want {
				return fmt.Errorf("maptable: reverse chain of pba %d runs past the %d referrers it should list", pba, want)
			}
			if w := m.get(v - 1); w == 0 || decodeMapping(w).pba != pba {
				return fmt.Errorf("maptable: reverse index lists lba %d under pba %d, which it does not map to", v-1, pba)
			}
			w := r.link.get(v - 1)
			if w&linkMask != prev {
				return fmt.Errorf("maptable: reverse chain of pba %d: lba %d names predecessor link %d, want %d", pba, v-1, w&linkMask, prev)
			}
			prev, v = v, w>>32
		}
		chained += int(n)
		if n != want {
			return fmt.Errorf("maptable: reverse index lists %d referrers of pba %d, %d mappings reference it", n, pba, want)
		}
	}
	if heads != r.head.n || chained != r.link.n {
		return fmt.Errorf("maptable: reverse index holds %d heads, %d links; the referenced blocks account for %d, %d",
			r.head.n, r.link.n, heads, chained)
	}
	return nil
}

// Each visits every live mapping; return false from fn to stop early.
func (t *Table) Each(fn func(lba uint64, pba alloc.PBA, shared bool) bool) {
	t.m.each(func(lba, v uint64) bool {
		mp := decodeMapping(v)
		return fn(lba, mp.pba, mp.shared)
	})
}

// Pin adds an index-cache pin to pba, protecting it from reclamation.
func (t *Table) Pin(pba alloc.PBA) { t.pins.add(uint64(pba), 1) }

// PinCount reports the number of pins currently held on pba.
func (t *Table) PinCount(pba alloc.PBA) int { return int(t.pins.get(uint64(pba))) }

// EachPinned visits every block holding at least one pin; return false
// from fn to stop early. Dense PBAs come in ascending order.
func (t *Table) EachPinned(fn func(pba alloc.PBA, pins int) bool) {
	t.pins.each(func(k uint64, v int32) bool {
		return fn(alloc.PBA(k), int(v))
	})
}

// Unpin drops an index pin. It returns true when the block became
// reclaimable (no pins, no logical references) — the caller frees it.
func (t *Table) Unpin(pba alloc.PBA) bool {
	left := t.pins.add(uint64(pba), -1)
	if left < 0 {
		panic("maptable: negative pin count")
	}
	if left == 0 {
		return t.refs.get(uint64(pba)) == 0
	}
	return false
}

// --- journaling ---

func (t *Table) writeHeader() {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], t.epoch)
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(hdr[0:8]))
	_ = t.dev.WriteAt(0, hdr[:]) // a crashed device keeps the old header
}

// recordSum is the per-record checksum: a murmur-style finalizer over
// the record words and the epoch seed. The byte-wise CRC32 it replaces
// cost ~3% of a full podbench run; the finalizer detects the same torn
// and stale records (any flipped bit avalanches through the mix) in a
// handful of ALU ops, and the journal format carries no compatibility
// burden — journal and Load always come from the same build.
func recordSum(seed uint32, lba, pbaFlags uint64) uint32 {
	x := lba*0x9e3779b97f4a7c15 ^ pbaFlags ^ uint64(seed)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

func encodeRecord(buf *[EntryBytes]byte, seedCRC uint32, lba, pbaFlags uint64) {
	binary.LittleEndian.PutUint64(buf[0:], lba)
	binary.LittleEndian.PutUint64(buf[8:], pbaFlags)
	binary.LittleEndian.PutUint32(buf[16:], recordSum(seedCRC, lba, pbaFlags))
}

func (t *Table) journal(lba, pba uint64, shared bool) {
	if t.dev == nil {
		return
	}
	pf := pba
	if shared {
		pf |= flagShared
	}
	if t.tail+EntryBytes > t.dev.Size() {
		t.Compact()
		if t.tail+EntryBytes > t.dev.Size() {
			panic(fmt.Sprintf("maptable: NVRAM too small: %d live entries need %d bytes, have %d",
				t.m.n, headerBytes+(t.m.n+1)*EntryBytes, t.dev.Size()))
		}
	}
	encodeRecord(&t.rec, t.seedCRC, lba, pf)
	_ = t.dev.WriteAt(t.tail, t.rec[:]) // crash mid-record leaves a torn tail; recovery discards it
	t.tail += EntryBytes
}

// Compact rewrites the journal as a snapshot of the live mappings under
// a new epoch, reclaiming space consumed by superseded records.
func (t *Table) Compact() {
	if t.dev == nil {
		return
	}
	t.epoch++
	t.seedCRC = epochSeedCRC(t.epoch)
	t.writeHeader()
	t.tail = headerBytes
	t.m.each(func(lba, v uint64) bool {
		mp := decodeMapping(v)
		pf := uint64(mp.pba)
		if mp.shared {
			pf |= flagShared
		}
		if t.tail+EntryBytes > t.dev.Size() {
			panic("maptable: NVRAM too small for live snapshot")
		}
		encodeRecord(&t.rec, t.seedCRC, lba, pf)
		_ = t.dev.WriteAt(t.tail, t.rec[:])
		t.tail += EntryBytes
		return true
	})
}

// JournalTail reports the current append offset (for tests and space
// accounting).
func (t *Table) JournalTail() int { return t.tail }

// Load reconstructs a table from the journal on dev, applying records
// until the first CRC failure (prefix consistency after a torn write),
// the first record carrying the retired unset bit, or the first naming
// an LBA past trace.LBALimit (no build journals one: Set refuses it).
// Index pins are volatile and come back empty; reference counts are
// recomputed from the surviving mappings. It returns the rebuilt table
// and the number of records applied.
//
// prev, when given, is the live table the loaded one replaces (crash
// recovery). Whoever replaces an object carries its wiring: the new
// table takes over prev's OnParole handler and, if prev maintained a
// reverse index, builds one over the recovered mappings — so nothing
// attached to the old table has to re-attach. (Variadic only because
// bench/ calls Load(dev); at most one prev is meaningful.)
func Load(dev *nvram.Device, prev ...*Table) (*Table, int, error) {
	var hdr [headerBytes]byte
	if err := dev.ReadAt(0, hdr[:]); err != nil {
		return nil, 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, 0, fmt.Errorf("maptable: bad journal magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	if crc32.ChecksumIEEE(hdr[0:8]) != binary.LittleEndian.Uint32(hdr[8:]) {
		return nil, 0, fmt.Errorf("maptable: corrupt journal header")
	}
	epoch := binary.LittleEndian.Uint32(hdr[4:])

	t := &Table{
		dev:   dev,
		epoch: epoch,
		tail:  headerBytes,
	}
	t.seedCRC = epochSeedCRC(epoch)

	applied := 0
	var rec [EntryBytes]byte
	for off := headerBytes; off+EntryBytes <= dev.Size(); off += EntryBytes {
		if err := dev.ReadAt(off, rec[:]); err != nil {
			break
		}
		want := binary.LittleEndian.Uint32(rec[16:])
		lba := binary.LittleEndian.Uint64(rec[0:])
		pf := binary.LittleEndian.Uint64(rec[8:])
		if recordSum(t.seedCRC, lba, pf) != want || pf&flagRetired != 0 || lba >= trace.LBALimit {
			break // torn, stale, retired or out-of-bound record: stop at the consistent prefix
		}
		t.dropMapping(lba)
		shared := pf&flagShared != 0
		pba := alloc.PBA(pf & pbaMask)
		t.m.set(lba, encodeMapping(mapping{pba: pba, shared: shared}))
		t.refs.add(uint64(pba), 1)
		if shared {
			t.shared++
		}
		applied++
		t.tail = off + EntryBytes
	}
	if t.shared > t.peak {
		t.peak = t.shared
	}
	for _, old := range prev {
		t.OnParole = old.OnParole
		if old.rev != nil {
			t.EnableReverseIndex()
		}
	}
	return t, applied, nil
}
