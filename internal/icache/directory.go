package icache

import (
	"fmt"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/index"
	"github.com/pod-dedup/pod/internal/probe"
)

// The fingerprint directory. Every fingerprint the index side knows —
// cached, cached under some stream's quota, or remembered by the ghost
// — is one slot of one slab, found through one table, and *where* it is
// cached is only which recency list the slot is linked into. Moving an
// entry between states (evicted into the ghost, swapped back in, moved
// out by a shrinking quota) relinks the slot; only a fingerprint
// leaving the directory altogether touches the tables.
//
// The slab is a list of fixed pages that never move: growing it adds a
// page and copies nothing (a contiguous slice growing from empty would
// allocate about five times its final size on the way).

const (
	ghostList      = 1 // list 0 is "on the free list"
	firstIndexList = 2 // the single index's list, or one list per stream

	slabPageBits  = 10 // 1 024 slots, 56 KiB a page
	slabPageSlots = 1 << slabPageBits
)

// slot is one fingerprint's directory entry. Slot 0 is never used, so 0
// means "none" in the tables and in the block chains.
type slot struct {
	pba        alloc.PBA
	fp         chunk.Fingerprint
	count      uint32 // write-request hits since (re-)admission
	list       int32  // the list the slot is linked into
	home       int32  // the index list it was admitted to; a ghost returns there
	prev, next int32
	revNext    int32 // next slot bound to the same physical block
}

// lruList is one circular recency list through the slab: head is its
// sentinel slot, head.next the most recent member.
type lruList struct {
	head   int32
	n, cap int
}

type directory struct {
	pages []*[slabPageSlots]slot
	n     int32 // slots handed out, slot 0 included; the rest of the last page is fresh
	free  int32 // released slots, chained through next
	lists []lruList
	byFP  *probe.Map[chunk.Fingerprint, int32]
	// byPBA names the first slot bound to a block, the rest chained
	// through revNext, so PurgePBA can drop every entry — live or ghost —
	// for a freed block: the consistency mechanism that replaces in-place
	// overwrite protection in this log-structured substrate. Nearly every
	// block is bound by exactly one fingerprint.
	byPBA *probe.Map[alloc.PBA, int32]
}

// newDirectory returns a directory holding only the ghost list.
func newDirectory(ghostCap int) directory {
	d := directory{
		lists: make([]lruList, ghostList, firstIndexList+1),
		byFP:  probe.NewMap[chunk.Fingerprint, int32](0),
		byPBA: probe.NewMap[alloc.PBA, int32](0),
	}
	d.fresh() // slot 0
	d.addList(ghostCap)
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

// addList appends an empty list and returns its id.
func (d *directory) addList(capacity int) int32 {
	h := d.fresh()
	*d.at(h) = slot{prev: h, next: h}
	d.lists = append(d.lists, lruList{head: h, cap: capacity})
	return int32(len(d.lists) - 1)
}

// find returns fp's slot, or 0.
func (d *directory) find(fp chunk.Fingerprint) int32 {
	i, _ := d.byFP.Get(fp)
	return i
}

func (d *directory) entry(i int32) index.Entry {
	return index.Entry{PBA: d.at(i).pba, Count: d.at(i).count}
}

// live counts the entries on index lists.
func (d *directory) live() int { return d.byFP.Len() - d.lists[ghostList].n }

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

// bind chains slot i onto its block.
func (d *directory) bind(i int32) {
	first, _ := d.byPBA.Ref(d.at(i).pba)
	d.at(i).revNext = *first
	*first = i
}

// unbind takes slot i off its block's chain.
func (d *directory) unbind(i int32) {
	s := d.at(i)
	first, _ := d.byPBA.Take(s.pba)
	if first == i {
		first = s.revNext
	} else {
		p := first
		for d.at(p).revNext != i {
			p = d.at(p).revNext
		}
		d.at(p).revNext = s.revNext
	}
	if first != 0 {
		d.byPBA.Put(s.pba, first)
	}
}

// insert admits a fingerprint the directory does not hold as list l's
// most recent member.
func (d *directory) insert(l int32, fp chunk.Fingerprint, pba alloc.PBA) {
	i := d.free
	if i != 0 {
		d.free = d.at(i).next
	} else {
		i = d.fresh()
	}
	*d.at(i) = slot{fp: fp, pba: pba, home: l}
	d.byFP.Put(fp, i)
	d.bind(i)
	d.pushFront(l, i)
}

// admit links an unlinked slot in as list l's most recent member, bound
// to pba, its Count restarting.
func (d *directory) admit(l, i int32, pba alloc.PBA) {
	s := d.at(i)
	if s.pba != pba {
		d.unbind(i)
		s.pba = pba
		d.bind(i)
	}
	s.count, s.home = 0, l
	d.pushFront(l, i)
}

// touch counts a write-request hit on slot i and promotes it.
func (d *directory) touch(i int32) index.Entry {
	d.at(i).count++
	l := d.at(i).list
	d.unlink(i)
	d.pushFront(l, i)
	return d.entry(i)
}

// release drops an unlinked slot from the directory.
func (d *directory) release(i int32) {
	d.unbind(i)
	d.discard(i)
}

// discard is release for a slot whose block chain the caller took whole.
func (d *directory) discard(i int32) {
	d.byFP.Delete(d.at(i).fp)
	*d.at(i) = slot{next: d.free}
	d.free = i
}

// evictTail pushes list l's oldest member one level down: an index
// entry into the ghost, whose own oldest member may leave to make room,
// a ghost entry out of the directory. A zero-capacity ghost (the fixed
// partition never looks at one) keeps nothing.
func (d *directory) evictTail(l int32) {
	i := d.at(d.lists[l].head).prev
	d.unlink(i)
	g := &d.lists[ghostList]
	if l == ghostList || g.cap == 0 {
		d.release(i)
		return
	}
	d.pushFront(ghostList, i)
	if g.n > g.cap {
		d.evictTail(ghostList)
	}
}

// resize sets list l's capacity and evicts what no longer fits, oldest
// first.
func (d *directory) resize(l int32, capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	lst := &d.lists[l]
	lst.cap = capacity
	for lst.n > capacity {
		d.evictTail(l)
	}
}

// swapIn re-admits ghosts, most recent first, each into its home list
// while that list has free quota, until no index list has room; it
// reports how many moved. Each lands in front of the one before it, so
// the oldest ghost re-admitted ends up the most recent entry.
func (d *directory) swapIn() int {
	room := 0
	for _, lst := range d.lists[firstIndexList:] {
		if lst.n < lst.cap {
			room += lst.cap - lst.n
		}
	}
	g := d.lists[ghostList].head
	moved := 0
	for i := d.at(g).next; i != g && moved < room; {
		next := d.at(i).next
		if home := d.at(i).home; d.lists[home].n < d.lists[home].cap {
			d.unlink(i)
			d.admit(home, i, d.at(i).pba)
			moved++
		}
		i = next
	}
	return moved
}

// purge drops every entry bound to pba.
func (d *directory) purge(pba alloc.PBA) {
	i, _ := d.byPBA.Take(pba)
	for i != 0 {
		next := d.at(i).revNext
		d.unlink(i)
		d.discard(i)
		i = next
	}
}

// bytes reports the memory the slab's pages and both tables hold.
func (d *directory) bytes() int {
	return len(d.pages)*int(unsafe.Sizeof([slabPageSlots]slot{})) + d.byFP.Bytes() + d.byPBA.Bytes()
}

// check audits the directory's structure: every table entry names a
// linked slot holding that fingerprint, every list is a well-formed
// ring of exactly n ≤ cap members that know which list they are on,
// every linked slot is on exactly one block chain and that chain is
// its block's, no index entry binds a remote-encoded block (a tier hint
// lives in the tier's own table), and the free list accounts for every
// other slot.
func (d *directory) check() error {
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
			if s.home < firstIndexList || int(s.home) >= len(d.lists) || (l != ghostList && s.home != l) {
				return fmt.Errorf("icache: slot %d on list %d has home %d", i, l, s.home)
			}
			if j, ok := d.byFP.Get(s.fp); !ok || j != i {
				return fmt.Errorf("icache: slot %d on list %d: the table maps its fingerprint to slot %d", i, l, j)
			}
			if alloc.IsRemote(s.pba) {
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
	if linked != d.byFP.Len() {
		return fmt.Errorf("icache: %d slots on lists, %d fingerprints in the table", linked, d.byFP.Len())
	}
	chained := 0
	var err error
	d.byPBA.Each(func(pba alloc.PBA, i int32) bool {
		if i == 0 {
			err = fmt.Errorf("icache: block %d has an empty chain", pba)
		}
		for ; i != 0 && err == nil; i = d.at(i).revNext {
			if s := d.at(i); s.list == 0 || s.pba != pba {
				err = fmt.Errorf("icache: block %d chains slot %d (list %d, block %d)", pba, i, s.list, s.pba)
			}
			if chained++; chained > linked {
				err = fmt.Errorf("icache: block chains hold more than the %d linked slots", linked)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if chained != linked {
		return fmt.Errorf("icache: %d slots on block chains, %d on lists", chained, linked)
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
