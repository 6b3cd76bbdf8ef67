package engine

import (
	"fmt"
	"sync"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// Store models the contents of the physical block space: which content
// identity each physical block holds, and whether the block is live
// (allocated). It is the ground truth that consistency tests verify
// engines against — the latency simulator decides *when* an I/O
// completes, the Store decides *what* it returns.
//
// Freeing a block marks it dead without erasing the content, matching
// physical disks: the bits stay on the platters until overwritten.
// That distinction matters twice — a dedup decision must never
// reference a dead block (the allocator may hand it out at any moment),
// while crash recovery may legitimately re-admit a block whose free was
// only in DRAM when the power failed.
//
// Cells live in lazily-allocated fixed-size pages indexed directly by
// PBA rather than a hash map: the write path touches the Store once per
// chunk (TryDedupe reads, WriteFresh writes), and at trace scale the
// map's hashing and growth rehashes dominated the simulator's profile.
// Pages are arenas drawn from a process-wide pool: an experiment run
// constructs hundreds of engines back to back, and recycling whole
// pages at engine teardown (Release) keeps the content model from
// being the run's largest garbage producer.
type Store struct {
	pages []*cellPage
}

// storePageBits sizes one page at 2^16 cells (1 MiB of cells), small
// enough that sparse address use stays cheap and large enough that the
// page directory stays tiny.
const storePageBits = 16
const storePageSize = 1 << storePageBits

type cellPage [storePageSize]cell

type cell struct {
	id    chunk.ContentID
	state uint8 // cellEmpty, cellDead, cellLive
}

const (
	cellEmpty uint8 = iota // never written
	cellDead               // freed; residual content remains
	cellLive               // allocated and holding id
)

// pagePool recycles content-model pages across engine lifetimes. Pages
// are zeroed when returned, so Get always yields an all-cellEmpty page.
var pagePool = sync.Pool{New: func() any { return new(cellPage) }}

// NewStore returns an empty physical content model.
func NewStore() *Store { return &Store{} }

// page returns the page holding pba, allocating it when grow is set.
func (s *Store) page(pba alloc.PBA, grow bool) *cellPage {
	pg := int(pba >> storePageBits)
	if pg >= len(s.pages) {
		if !grow {
			return nil
		}
		pages := make([]*cellPage, pg+1)
		copy(pages, s.pages)
		s.pages = pages
	}
	if s.pages[pg] == nil {
		if !grow {
			return nil
		}
		s.pages[pg] = pagePool.Get().(*cellPage)
	}
	return s.pages[pg]
}

// Release returns every page to the process-wide pool and empties the
// store. The replay harness calls it at engine teardown (after the
// result is extracted); the store must not be used afterwards except by
// constructing new contents from scratch.
func (s *Store) Release() {
	for i, p := range s.pages {
		if p != nil {
			clear(p[:])
			pagePool.Put(p)
			s.pages[i] = nil
		}
	}
	s.pages = s.pages[:0]
}

// Write records that pba now holds id and is live.
func (s *Store) Write(pba alloc.PBA, id chunk.ContentID) {
	s.page(pba, true)[pba&(storePageSize-1)] = cell{id: id, state: cellLive}
}

// Read returns the content at pba; ok only for live blocks.
func (s *Store) Read(pba alloc.PBA) (chunk.ContentID, bool) {
	p := s.page(pba, false)
	if p == nil {
		return 0, false
	}
	c := p[pba&(storePageSize-1)]
	if c.state != cellLive {
		return 0, false
	}
	return c.id, true
}

// Touched reports whether any block of [from, from+n) lies on a page
// some write has reached. It answers per page, so true promises
// nothing about the range itself; false says every block in it is in
// the never-written state, without probing one — what lets a sweep of a
// mostly unwritten region cost its written part.
func (s *Store) Touched(from, n uint64) bool {
	if n == 0 {
		return false
	}
	for pg, last := from>>storePageBits, (from+n-1)>>storePageBits; pg <= last && pg < uint64(len(s.pages)); pg++ {
		if s.pages[pg] != nil {
			return true
		}
	}
	return false
}

// Residual returns the content remaining at pba even if the block is
// dead (what a disk forensics pass would see).
func (s *Store) Residual(pba alloc.PBA) (chunk.ContentID, bool) {
	p := s.page(pba, false)
	if p == nil {
		return 0, false
	}
	c := p[pba&(storePageSize-1)]
	return c.id, c.state != cellEmpty
}

// Free marks pba dead; the residual content remains until overwritten.
func (s *Store) Free(pba alloc.PBA) {
	p := s.page(pba, false)
	if p == nil {
		return
	}
	if c := &p[pba&(storePageSize-1)]; c.state == cellLive {
		c.state = cellDead
	}
}

// Len reports the number of live physical blocks.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.pages {
		if p == nil {
			continue
		}
		for i := range p {
			if p[i].state == cellLive {
				n++
			}
		}
	}
	return n
}

// Retain reconciles liveness with the recovered Map table: blocks in
// keep become live again (their frees never became durable), everything
// else is dead. It panics if a kept block holds no residual content —
// the data write always precedes the journal record, so that would be
// an ordering bug.
func (s *Store) Retain(keep map[alloc.PBA]bool) {
	for pg, p := range s.pages {
		if p == nil {
			continue
		}
		base := alloc.PBA(pg) << storePageBits
		for i := range p {
			c := &p[i]
			if c.state == cellEmpty {
				continue
			}
			if keep[base+alloc.PBA(i)] {
				c.state = cellLive
			} else {
				c.state = cellDead
			}
		}
	}
	for pba := range keep {
		if _, ok := s.Residual(pba); !ok {
			panic(fmt.Sprintf("store: recovered mapping references block %d with no content", pba))
		}
	}
}

// MustMatch panics unless pba is live and holds id — used by write
// verification to catch dedup or mapping corruption at the request that
// caused it.
func (s *Store) MustMatch(pba alloc.PBA, id chunk.ContentID) {
	got, ok := s.Read(pba)
	if !ok {
		panic(fmt.Sprintf("store: reference to dead or unallocated block %d", pba))
	}
	if got != id {
		panic(fmt.Sprintf("store: corruption: block %d holds content %d, expected %d", pba, got, id))
	}
}
