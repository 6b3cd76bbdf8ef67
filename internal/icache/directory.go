package icache

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// The iCache directory. Every entry either cache knows — a fingerprint
// cached (under some stream's quota) or in the ghost index, a block in
// the read cache or the read ghost — is one slot of one slab, and
// *where* it is cached is only which recency list the slot is linked
// into. Index-side slots are keyed by fingerprint, read-side slots by
// block alone (one per block and list: a block may be cached and ghosted
// at once). Each list names the ghost its evictions drop into, so moving
// an entry between states relinks the slot the same way on both sides;
// only an entry leaving the directory touches the buckets.
//
// The slab is a list of fixed pages that never move: growing it adds a
// page and copies nothing (a contiguous slice growing from empty would
// allocate about five times its final size on the way). Because a slot
// never moves, the slab is also where the keys live: a fingerprint is
// found through a bucket head whose chain runs through the slots'
// fpNext, a block — every slot bound to it — through one whose chain
// runs through revNext, and neither array holds a key. Both keep at most
// one slot per two buckets, so a miss is most often an empty bucket and
// a chained mismatch costs one word compare.

const (
	ghostList      = 1 // list 0 is "on the free list"
	readList       = 2
	readGhostList  = 3
	firstIndexList = 4 // the single index's list, or one list per stream

	slabPageBits  = 10 // 1 024 slots, 56 KiB a page
	slabPageSlots = 1 << slabPageBits

	minBucketBits = 3
	minBuckets    = 1 << minBucketBits
)

// slot is one directory entry: a fingerprint and the block it binds, or
// a read-side block. Slot 0 is never used, so 0 means "none" in the
// buckets and in the chains. Its 52 B of fields pad to 56.
type slot struct {
	pba        alloc.PBA
	fp         chunk.Fingerprint // zero on the read side
	list       int32             // the list the slot is linked into
	home       int32             // the list it was admitted to; a ghost returns there
	prev, next int32
	fpNext     int32 // next slot in the same fingerprint bucket
	revNext    int32 // next slot in the same block bucket
}

// hashed reports whether the slot holds a fingerprint — an index-side
// slot — rather than a read-side block, keyed by the block alone.
func (s *slot) hashed() bool { return s.home >= firstIndexList }

// lruList is one circular recency list through the slab: head is its
// sentinel slot, head.next the most recent member.
type lruList struct {
	head   int32
	n, cap int
	ghost  int32 // the list evicted members drop into; 0: they leave
}

type directory struct {
	pages []*[slabPageSlots]slot
	n     int32 // slots handed out, slot 0 included; the rest of the last page is fresh
	free  int32 // released slots, chained through next
	lists []lruList
	// fpHead and pbaHead name the first slot of each fingerprint and
	// block bucket; they double together, so one shift serves both. The
	// block buckets let PurgePBA drop every entry — cached or ghosted, on
	// either side — for a freed block: the consistency mechanism that
	// replaces in-place overwrite protection in this log-structured
	// substrate.
	fpHead, pbaHead []int32
	shift           uint8  // 64 − log2 of the bucket count: a bucket is a word's top bits
	held            int    // slots on every list but the free one
	warmed          uint64 // what warm loaded, kept so the loads are not dropped
}

// newDirectory returns a directory holding the ghost index, the read
// cache and the read ghost, and no index list.
func newDirectory(ghostCap, readCap, readGhostCap int) directory {
	d := directory{
		lists:   make([]lruList, ghostList, firstIndexList+1),
		fpHead:  make([]int32, minBuckets),
		pbaHead: make([]int32, minBuckets),
		shift:   64 - minBucketBits,
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

// firstWord is a fingerprint's first eight bytes, already uniform (a
// SHA-1, or the synthetic fingerprinter's finalised mix): its bucket,
// and the compare that settles most chained mismatches.
func firstWord(fp *chunk.Fingerprint) uint64 {
	return binary.LittleEndian.Uint64(fp[:8])
}

func (d *directory) fpBucket(w uint64) uint64 { return w >> d.shift }

// pbaBucket spreads block numbers, which are dense, by Fibonacci
// hashing: the top bits of the product, which give consecutive blocks
// distinct buckets (its middle bits fill only about a quarter of them).
func (d *directory) pbaBucket(pba alloc.PBA) uint64 {
	return uint64(pba) * 0x9e3779b97f4a7c15 >> d.shift
}

// holding returns list l's slot for pba, or 0; l is a read list.
func (d *directory) holding(l int32, pba alloc.PBA) int32 {
	for i := d.pbaHead[d.pbaBucket(pba)]; i != 0; {
		s := d.at(i)
		if s.pba == pba && s.list == l {
			return i
		}
		i = s.revNext
	}
	return 0
}

// find returns fp's slot, or 0.
func (d *directory) find(fp chunk.Fingerprint) int32 {
	w := firstWord(&fp)
	for i := d.fpHead[d.fpBucket(w)]; i != 0; {
		s := d.at(i)
		if firstWord(&s.fp) == w && s.fp == fp {
			return i
		}
		i = s.fpNext
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
		sum += uint64(d.fpHead[d.fpBucket(firstWord(&fps[k]))])
	}
	for k := range fps {
		if i := d.fpHead[d.fpBucket(firstWord(&fps[k]))]; i != 0 {
			s := d.at(i)
			sum += firstWord(&s.fp) + uint64(s.fpNext)
		}
	}
	d.warmed += sum
}

// fpLink returns the link that names slot i in its fingerprint bucket.
func (d *directory) fpLink(i int32) *int32 {
	p := &d.fpHead[d.fpBucket(firstWord(&d.at(i).fp))]
	for *p != i {
		p = &d.at(*p).fpNext
	}
	return p
}

// pbaLink returns the link that names slot i in its block bucket.
func (d *directory) pbaLink(i int32) *int32 {
	p := &d.pbaHead[d.pbaBucket(d.at(i).pba)]
	for *p != i {
		p = &d.at(*p).revNext
	}
	return p
}

// hash pushes slot i onto its fingerprint bucket.
func (d *directory) hash(i int32) {
	s := d.at(i)
	b := &d.fpHead[d.fpBucket(firstWord(&s.fp))]
	s.fpNext, *b = *b, i
}

// grow doubles both bucket arrays and re-links every held slot; no key
// moves, since keys live only in the slab.
func (d *directory) grow() {
	n := 2 * len(d.fpHead)
	d.fpHead, d.pbaHead, d.shift = make([]int32, n), make([]int32, n), d.shift-1
	for i := int32(1); i < d.n; i++ {
		if s := d.at(i); s.list != 0 {
			if s.hashed() {
				d.hash(i)
			}
			d.bind(i)
		}
	}
}

func (d *directory) entry(i int32) Entry { return Entry{PBA: d.at(i).pba} }

// fps counts the fingerprints held, cached or ghosted.
func (d *directory) fps() int { return d.held - d.lists[readList].n - d.lists[readGhostList].n }

// live counts the entries on index lists.
func (d *directory) live() int { return d.fps() - d.lists[ghostList].n }

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

// bind pushes slot i onto its block's bucket.
func (d *directory) bind(i int32) {
	s := d.at(i)
	b := &d.pbaHead[d.pbaBucket(s.pba)]
	s.revNext, *b = *b, i
}

// unbind takes slot i out of its block's bucket.
func (d *directory) unbind(i int32) {
	*d.pbaLink(i) = d.at(i).revNext
}

// take hands out an unlinked slot bound to pba whose home is list l,
// doubling the buckets first when it would fill half of them.
func (d *directory) take(l int32, pba alloc.PBA) int32 {
	if d.held++; 2*d.held >= len(d.pbaHead) {
		d.grow()
	}
	i := d.free
	if i != 0 {
		d.free = d.at(i).next
	} else {
		i = d.fresh()
	}
	*d.at(i) = slot{pba: pba, home: l}
	d.bind(i)
	return i
}

// insert admits a fingerprint the directory does not hold as index list
// l's most recent member.
func (d *directory) insert(l int32, fp chunk.Fingerprint, pba alloc.PBA) {
	i := d.take(l, pba)
	d.at(i).fp = fp
	d.hash(i)
	d.pushFront(l, i)
}

// admit links an unlinked slot in as list l's most recent member, bound
// to pba.
func (d *directory) admit(l, i int32, pba alloc.PBA) {
	s := d.at(i)
	if s.pba != pba {
		d.unbind(i)
		s.pba = pba
		d.bind(i)
	}
	s.home = l
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
	d.unbind(i)
	d.discard(i)
}

// discard is release for a slot the caller already took out of its
// block's bucket.
func (d *directory) discard(i int32) {
	if d.at(i).hashed() {
		*d.fpLink(i) = d.at(i).fpNext
	}
	d.held--
	*d.at(i) = slot{next: d.free}
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

// purge drops every entry bound to pba, leaving the other blocks that
// share its bucket.
func (d *directory) purge(pba alloc.PBA) {
	p := &d.pbaHead[d.pbaBucket(pba)]
	for i := *p; i != 0; i = *p {
		s := d.at(i)
		if s.pba != pba {
			p = &s.revNext
			continue
		}
		*p = s.revNext
		d.unlink(i)
		d.discard(i)
	}
}

// bytes reports the memory the slab's pages and both bucket arrays hold.
func (d *directory) bytes() int {
	return len(d.pages)*int(unsafe.Sizeof([slabPageSlots]slot{})) + 4*(len(d.fpHead)+len(d.pbaHead))
}

// check audits the directory's structure: the fingerprint buckets chain
// exactly the fingerprints held and the block buckets every held slot,
// each in the bucket its key hashes to and with no cycle; every list is a
// well-formed ring of exactly n ≤ cap members that know which list they
// are on, sit on their home list or its ghost, and are the slot find (a
// fingerprint) or holding (a read-side block: one slot per block and
// list) returns; no index entry binds a remote-encoded block (a tier hint
// lives in the tier's own table; a remote read is cached under one); and
// the free list accounts for every other slot. The chains are audited
// first, so the walks below cannot loop.
func (d *directory) check() error {
	if err := d.checkChains("fingerprint", d.fpHead, d.fps(), func(s *slot) (int32, uint64, bool) {
		return s.fpNext, d.fpBucket(firstWord(&s.fp)), s.hashed()
	}); err != nil {
		return err
	}
	if err := d.checkChains("block", d.pbaHead, d.held, func(s *slot) (int32, uint64, bool) {
		return s.revNext, d.pbaBucket(s.pba), true
	}); err != nil {
		return err
	}
	linked := 0
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
			j := d.find(s.fp)
			if !s.hashed() {
				j = d.holding(l, s.pba)
			}
			if j != i {
				return fmt.Errorf("icache: slot %d on list %d: its key is found at slot %d", i, l, j)
			}
			if s.hashed() && alloc.IsRemote(s.pba) {
				return fmt.Errorf("icache: index binds remote-encoded block %d", s.pba)
			}
		}
		if n != lst.n || d.at(lst.head).prev != prev {
			return fmt.Errorf("icache: list %d counts %d members, its ring holds %d", l, lst.n, n)
		}
		if lst.n > lst.cap {
			return fmt.Errorf("icache: list %d holds %d entries over its capacity %d", l, lst.n, lst.cap)
		}
		linked += n
	}
	if linked != d.held {
		return fmt.Errorf("icache: %d slots on lists, %d held", linked, d.held)
	}
	free := 0
	for i := d.free; i != 0; i = d.at(i).next {
		if free++; d.at(i).list != 0 || free > int(d.n) {
			return fmt.Errorf("icache: slot %d on the free list is linked into list %d", i, d.at(i).list)
		}
	}
	if want := int(d.n) - 1 - (len(d.lists) - ghostList) - linked; free != want {
		return fmt.Errorf("icache: free list holds %d slots, want %d", free, want)
	}
	return nil
}

// checkChains walks every bucket of heads, each slot naming its
// successor, the bucket it hashes to and whether it belongs in these
// buckets at all, and reports a member that does not, is not on a list
// or sits in another bucket, and a count other than want; a walk longer
// than want (a cycle) stops there.
func (d *directory) checkChains(what string, heads []int32, want int, link func(*slot) (next int32, bucket uint64, member bool)) error {
	if uint64(len(heads)) != 1<<(64-d.shift) {
		return fmt.Errorf("icache: %d %s buckets under shift %d", len(heads), what, d.shift)
	}
	chained := 0
	for b, i := range heads {
		for i != 0 {
			s := d.at(i)
			if chained++; chained > want {
				return fmt.Errorf("icache: %s buckets chain more than the %d slots keyed so", what, want)
			}
			next, home, member := link(s)
			if !member || s.list == 0 || home != uint64(b) {
				return fmt.Errorf("icache: %s bucket %d chains slot %d (list %d, bucket %d)", what, b, i, s.list, home)
			}
			i = next
		}
	}
	if chained != want {
		return fmt.Errorf("icache: %d slots in %s buckets, %d keyed so", chained, what, want)
	}
	return nil
}
