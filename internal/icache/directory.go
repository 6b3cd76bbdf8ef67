package icache

import (
	"fmt"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// The iCache directory. Every entry either cache knows — a fingerprint
// cached (under some stream's quota) or in the ghost index, a block in
// the read cache or the read ghost — is one slot of one slab, and
// *where* it is cached is only which recency list the slot is linked
// into. An index-side slot is keyed by its fingerprint alone, a
// read-side slot by its block alone (one per block and list: a block may
// be cached and ghosted at once), and a slot is one or the other for its
// whole life. Each list names the ghost its evictions drop into, so
// moving an entry between states relinks the slot the same way on both
// sides; only an entry entering or leaving the directory touches the
// buckets.
//
// The slab is a list of fixed pages that never move: growing it adds a
// page and copies nothing (a contiguous slice growing from empty would
// allocate about five times its final size on the way). Because a slot
// never moves, the slab is also where the keys live: a fingerprint is
// found through a fingerprint bucket, a block through a block bucket,
// each chain running through the slots' one chain link, and neither
// array holds a key. Each array is sized by its own keys, at most one
// per two buckets, so a miss is most often an empty bucket and a chained
// mismatch costs one word compare.
//
// A freed block leaves by both keys: purge drops its read-side slots,
// found by the block, and forget its index entry, found by the
// fingerprint of what the block held. An index entry only ever binds a
// block that holds its fingerprint's content, so that fingerprint names
// the one entry that can bind the block, and the index side keeps no
// block → entry chain to upkeep on every insert.

const (
	ghostList      = 1 // list 0 is "on the free list"
	readList       = 2
	readGhostList  = 3
	firstIndexList = 4 // the single index's list, or one list per stream

	slabPageBits  = 10 // 1 024 slots, 40 KiB a page
	slabPageSlots = 1 << slabPageBits

	minBucketBits = 3
	minBuckets    = 1 << minBucketBits
)

// slot is one directory entry: a fingerprint and the block it binds, or
// a read-side block. Slot 0 is never used, so 0 means "none" in the
// buckets and in the chains. Its 40 B hold 4 B of padding.
type slot struct {
	pba        alloc.PBA
	fp         chunk.Fingerprint // zero on the read side
	list       int32             // the list the slot is linked into
	home       int32             // the list it was admitted to; a ghost returns there
	prev, next int32
	chain      int32 // next slot in the same bucket, of the slot's own family
}

// hashed reports whether the slot holds a fingerprint — an index-side
// slot — rather than a read-side block, keyed by the block alone.
func (s *slot) hashed() bool { return s.home >= firstIndexList }

// word is the uniform word slot s is bucketed by: its fingerprint's,
// or its block's.
func (s *slot) word() uint64 {
	if s.hashed() {
		return s.fp.Word()
	}
	return blockWord(s.pba)
}

// lruList is one circular recency list through the slab: head is its
// sentinel slot, head.next the most recent member.
type lruList struct {
	head   int32
	n, cap int
	ghost  int32 // the list evicted members drop into; 0: they leave
}

// buckets is one family's bucket array: heads[b] names the first slot of
// bucket b. It doubles when its keys would fill half of it.
type buckets struct {
	heads []int32
	shift uint8 // 64 − log2 len(heads): a bucket is a word's top bits
	keys  int   // slots chained
}

func newBuckets() buckets {
	return buckets{heads: make([]int32, minBuckets), shift: 64 - minBucketBits}
}

// head returns the head of the bucket word w falls in.
func (b *buckets) head(w uint64) *int32 { return &b.heads[w>>b.shift] }

type directory struct {
	pages []*[slabPageSlots]slot
	n     int32 // slots handed out, slot 0 included; the rest of the last page is fresh
	free  int32 // released slots, chained through next
	lists []lruList
	// byFP chains the index side, cached or ghosted; byPBA the read
	// side, whose block buckets let PurgePBA drop a freed block from the
	// read cache and its ghost in one walk.
	byFP, byPBA buckets
	warmed      uint64 // what warm loaded, kept so the loads are not dropped
}

// newDirectory returns a directory holding the ghost index, the read
// cache and the read ghost, and no index list.
func newDirectory(ghostCap, readCap, readGhostCap int) directory {
	d := directory{
		lists: make([]lruList, ghostList, firstIndexList+1),
		byFP:  newBuckets(),
		byPBA: newBuckets(),
	}
	d.fresh() // slot 0
	d.addList(ghostCap, 0)
	d.addList(readCap, readGhostList)
	d.addList(readGhostCap, 0)
	return d
}

// at returns slot i, which stays where it is for the directory's life.
func (d *directory) at(i int32) *slot {
	return &d.pages[uint32(i)>>slabPageBits][uint32(i)&(slabPageSlots-1)]
}

// fresh hands out the next never-used slot, adding a page when the last
// one is full.
func (d *directory) fresh() int32 {
	if int(d.n) == len(d.pages)<<slabPageBits {
		d.pages = append(d.pages, new([slabPageSlots]slot))
	}
	d.n++
	return d.n - 1
}

// addList appends an empty list whose evictions drop into ghost and
// returns its id.
func (d *directory) addList(capacity int, ghost int32) int32 {
	h := d.fresh()
	*d.at(h) = slot{prev: h, next: h}
	d.lists = append(d.lists, lruList{head: h, cap: max(capacity, 0), ghost: ghost})
	return int32(len(d.lists) - 1)
}

// blockWord spreads block numbers, which are dense, by Fibonacci
// hashing: a bucket is the product's top bits, which give consecutive
// blocks distinct buckets (its middle bits fill only about a quarter of
// them).
func blockWord(pba alloc.PBA) uint64 { return uint64(pba) * 0x9e3779b97f4a7c15 }

// family returns the buckets slot s is chained in.
func (d *directory) family(s *slot) *buckets {
	if s.hashed() {
		return &d.byFP
	}
	return &d.byPBA
}

// holding returns list l's slot for pba, or 0; l is a read list.
func (d *directory) holding(l int32, pba alloc.PBA) int32 {
	for i := *d.byPBA.head(blockWord(pba)); i != 0; {
		s := d.at(i)
		if s.pba == pba && s.list == l {
			return i
		}
		i = s.chain
	}
	return 0
}

// find returns fp's slot, or 0.
func (d *directory) find(fp chunk.Fingerprint) int32 {
	for i := *d.byFP.head(fp.Word()); i != 0; {
		s := d.at(i)
		if s.fp == fp {
			return i
		}
		i = s.chain
	}
	return 0
}

// warm loads what find will read first for each of fps — the bucket
// head, then the slot it names — and changes nothing. The heads are
// loaded in one round and the slots in a second, so a batch's cache
// misses overlap instead of queueing one behind another. The words go
// into warmed: a load whose value nothing uses would be compiled away.
func (d *directory) warm(fps []chunk.Fingerprint) {
	var sum uint64
	for k := range fps {
		sum += uint64(*d.byFP.head(fps[k].Word()))
	}
	for k := range fps {
		if i := *d.byFP.head(fps[k].Word()); i != 0 {
			s := d.at(i)
			sum += s.fp.Word() + uint64(s.chain)
		}
	}
	d.warmed += sum
}

// link returns the link that names slot i in its bucket.
func (d *directory) link(i int32) *int32 {
	s := d.at(i)
	p := d.family(s).head(s.word())
	for *p != i {
		p = &d.at(*p).chain
	}
	return p
}

// grow doubles family f's buckets and re-chains the held slots keyed
// into it; no key moves, since keys live only in the slab.
func (d *directory) grow(f *buckets) {
	f.heads, f.shift = make([]int32, 2*len(f.heads)), f.shift-1
	for i := int32(1); i < d.n; i++ {
		if s := d.at(i); s.list != 0 && d.family(s) == f {
			h := f.head(s.word())
			s.chain, *h = *h, i
		}
	}
}

func (d *directory) entry(i int32) Entry { return Entry{PBA: d.at(i).pba} }

// live counts the entries on index lists.
func (d *directory) live() int { return d.byFP.keys - d.lists[ghostList].n }

func (d *directory) unlink(i int32) {
	s := d.at(i)
	d.at(s.prev).next = s.next
	d.at(s.next).prev = s.prev
	d.lists[s.list].n--
}

// pushFront links slot i in as list l's most recent member.
func (d *directory) pushFront(l, i int32) {
	lst := &d.lists[l]
	h := lst.head
	s := d.at(i)
	s.list, s.prev, s.next = l, h, d.at(h).next
	d.at(s.next).prev = i
	d.at(h).next = i
	lst.n++
}

// take hands out a slot on no list whose home is list l, keyed by fp on
// an index list and by pba on a read list, and chains it into its
// bucket, doubling that family's buckets first when it would fill half
// of them.
func (d *directory) take(l int32, fp chunk.Fingerprint, pba alloc.PBA) int32 {
	i := d.free
	if i != 0 {
		d.free = d.at(i).next
	} else {
		i = d.fresh()
	}
	s := d.at(i)
	*s = slot{pba: pba, fp: fp, home: l}
	f := d.family(s)
	if f.keys++; 2*f.keys >= len(f.heads) {
		d.grow(f)
	}
	h := f.head(s.word())
	s.chain, *h = *h, i
	return i
}

// admit links an unlinked index slot in as list l's most recent member,
// bound to pba; the slot is keyed by its fingerprint, so no bucket
// changes.
func (d *directory) admit(l, i int32, pba alloc.PBA) {
	s := d.at(i)
	s.pba, s.home = pba, l
	d.pushFront(l, i)
}

// promote makes slot i its list's most recent member.
func (d *directory) promote(i int32) {
	l := d.at(i).list
	d.unlink(i)
	d.pushFront(l, i)
}

// land links the unlinked slot i in as list l's most recent member. A
// read list holds one slot per block: if l already has one for i's
// block, that slot is promoted instead and i dropped.
func (d *directory) land(l, i int32) {
	if !d.at(i).hashed() {
		if j := d.holding(l, d.at(i).pba); j != 0 {
			d.release(i)
			d.promote(j)
			return
		}
	}
	d.pushFront(l, i)
}

// release drops an unlinked slot from the directory.
func (d *directory) release(i int32) {
	*d.link(i) = d.at(i).chain
	d.discard(i)
}

// discard is release for a slot the caller already took out of its
// bucket.
func (d *directory) discard(i int32) {
	s := d.at(i)
	d.family(s).keys--
	*s = slot{next: d.free}
	d.free = i
}

// evictTail pushes list l's oldest member one level down: a cached
// entry into its list's ghost, whose own oldest member may leave to make
// room, a ghost entry out of the directory. A zero-capacity ghost (the
// fixed partition never looks at one) keeps nothing.
func (d *directory) evictTail(l int32) {
	i := d.at(d.lists[l].head).prev
	d.unlink(i)
	g := d.lists[l].ghost
	if g == 0 || d.lists[g].cap == 0 {
		d.release(i)
		return
	}
	d.land(g, i)
	if d.lists[g].n > d.lists[g].cap {
		d.evictTail(g)
	}
}

// resize sets list l's capacity and evicts what no longer fits, oldest
// first.
func (d *directory) resize(l int32, capacity int) {
	lst := &d.lists[l]
	lst.cap = max(capacity, 0)
	for lst.n > lst.cap {
		d.evictTail(l)
	}
}

// swapIn re-admits ghost list g's members, most recent first, each into
// its home list while that list has free room, until no list g backs has
// any; it reports how many moved. Each lands in front of the one before
// it, so the oldest ghost re-admitted ends up its list's most recent
// member.
func (d *directory) swapIn(g int32) int {
	room := 0
	for _, lst := range d.lists {
		if lst.ghost == g && lst.n < lst.cap {
			room += lst.cap - lst.n
		}
	}
	h := d.lists[g].head
	moved := 0
	for i := d.at(h).next; i != h && moved < room; {
		next := d.at(i).next
		if home := d.at(i).home; d.lists[home].n < d.lists[home].cap {
			d.unlink(i)
			d.land(home, i)
			moved++
		}
		i = next
	}
	return moved
}

// purge drops every read-side slot bound to pba, cached or ghosted,
// leaving the other blocks that share its bucket.
func (d *directory) purge(pba alloc.PBA) {
	p := d.byPBA.head(blockWord(pba))
	for i := *p; i != 0; i = *p {
		s := d.at(i)
		if s.pba != pba {
			p = &s.chain
			continue
		}
		*p = s.chain
		d.unlink(i)
		d.discard(i)
	}
}

// forget drops fp's index entry, cached or ghosted, if it binds pba: a
// newer copy of the content keeps its entry.
func (d *directory) forget(fp chunk.Fingerprint, pba alloc.PBA) {
	for p := d.byFP.head(fp.Word()); *p != 0; p = &d.at(*p).chain {
		if i, s := *p, d.at(*p); s.fp == fp {
			if s.pba == pba {
				*p = s.chain
				d.unlink(i)
				d.discard(i)
			}
			return
		}
	}
}

// bytes reports the memory the slab's pages and both bucket arrays hold.
func (d *directory) bytes() int {
	return len(d.pages)*int(unsafe.Sizeof([slabPageSlots]slot{})) + 4*(len(d.byFP.heads)+len(d.byPBA.heads))
}

// check audits the directory's structure: the fingerprint buckets chain
// exactly the index-side slots and the block buckets exactly the
// read-side ones, each in the bucket its key falls in and with no cycle;
// every list is a well-formed ring of exactly n ≤ cap members that know
// which list they are on, sit on their home list or its ghost, and are
// the slot find (a fingerprint) or holding (a read-side block: one slot
// per block and list) returns; no index entry binds a remote-encoded
// block (a tier hint lives in the tier's own table; a remote read is
// cached under one); and the free list accounts for every other slot.
// The chains are audited first, so the walks below cannot loop. That an
// index entry binds a block holding its content is the engine's to
// audit (CheckIndex): the directory knows no content.
func (d *directory) check() error {
	if err := d.checkChains("fingerprint", &d.byFP); err != nil {
		return err
	}
	if err := d.checkChains("block", &d.byPBA); err != nil {
		return err
	}
	var linked [2]int // index side, read side
	for l := int32(ghostList); int(l) < len(d.lists); l++ {
		lst := d.lists[l]
		n, prev := 0, lst.head
		for i := d.at(lst.head).next; i != lst.head; prev, i = i, d.at(i).next {
			s := d.at(i)
			if n++; n > lst.n {
				return fmt.Errorf("icache: list %d holds more than its %d counted members", l, lst.n)
			}
			if s.list != l || s.prev != prev {
				return fmt.Errorf("icache: slot %d on list %d is linked as list %d, prev %d (want %d)", i, l, s.list, s.prev, prev)
			}
			if s.home <= 0 || int(s.home) >= len(d.lists) || d.lists[s.home].ghost == 0 || (l != s.home && l != d.lists[s.home].ghost) {
				return fmt.Errorf("icache: slot %d on list %d has home %d", i, l, s.home)
			}
			j, side := d.find(s.fp), 0
			if !s.hashed() {
				j, side = d.holding(l, s.pba), 1
			}
			if j != i {
				return fmt.Errorf("icache: slot %d on list %d: its key is found at slot %d", i, l, j)
			}
			if s.hashed() && alloc.IsRemote(s.pba) {
				return fmt.Errorf("icache: index binds remote-encoded block %d", s.pba)
			}
			linked[side]++
		}
		if n != lst.n || d.at(lst.head).prev != prev {
			return fmt.Errorf("icache: list %d counts %d members, its ring holds %d", l, lst.n, n)
		}
		if lst.n > lst.cap {
			return fmt.Errorf("icache: list %d holds %d entries over its capacity %d", l, lst.n, lst.cap)
		}
	}
	if linked != [2]int{d.byFP.keys, d.byPBA.keys} {
		return fmt.Errorf("icache: %d index and %d read slots on lists, %d and %d keyed", linked[0], linked[1], d.byFP.keys, d.byPBA.keys)
	}
	free := 0
	for i := d.free; i != 0; i = d.at(i).next {
		if free++; d.at(i).list != 0 || free > int(d.n) {
			return fmt.Errorf("icache: slot %d on the free list is linked into list %d", i, d.at(i).list)
		}
	}
	if want := int(d.n) - 1 - (len(d.lists) - ghostList) - linked[0] - linked[1]; free != want {
		return fmt.Errorf("icache: free list holds %d slots, want %d", free, want)
	}
	return nil
}

// checkChains walks every bucket of family f and reports a slot that
// belongs to the other family, is not on a list or sits in another
// bucket, and a count other than f.keys; a walk longer than f.keys (a
// cycle) stops there.
func (d *directory) checkChains(what string, f *buckets) error {
	if uint64(len(f.heads)) != 1<<(64-f.shift) {
		return fmt.Errorf("icache: %d %s buckets under shift %d", len(f.heads), what, f.shift)
	}
	chained := 0
	for b, i := range f.heads {
		for i != 0 {
			s := d.at(i)
			if chained++; chained > f.keys {
				return fmt.Errorf("icache: %s buckets chain more than the %d slots keyed so", what, f.keys)
			}
			if home := s.word() >> f.shift; d.family(s) != f || s.list == 0 || home != uint64(b) {
				return fmt.Errorf("icache: %s bucket %d chains slot %d (list %d, home %d, bucket %d)", what, b, i, s.list, s.home, home)
			}
			i = s.chain
		}
	}
	if chained != f.keys {
		return fmt.Errorf("icache: %d slots in %s buckets, %d keyed so", chained, what, f.keys)
	}
	return nil
}
