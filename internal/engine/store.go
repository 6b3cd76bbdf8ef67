package engine

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/trace"
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
// The model is one trace.Volume indexed by PBA (NewBase bounds the
// array's data blocks at trace.LBALimit): a block's content is the
// volume's content ID, "ever written" its presence bit and "dead" its
// mark, at 8.25 bytes a block on pages one routing granule wide. Its
// pages come from the volume's process-wide pool, and Release hands
// them back at engine teardown, so hundreds of engines built back to
// back do not make the content model the run's largest garbage
// producer.
type Store struct {
	v trace.Volume
}

// NewStore returns an empty physical content model.
func NewStore() *Store { return &Store{} }

// Release returns every page to the process-wide pool and empties the
// store. The replay harness calls it at engine teardown (after the
// result is extracted); the store must not be used afterwards except by
// constructing new contents from scratch.
func (s *Store) Release() { s.v.Release() }

// Write records that pba now holds id and is live.
func (s *Store) Write(pba alloc.PBA, id chunk.ContentID) { s.v.Set(uint64(pba), id) }

// Read returns the content at pba; ok only for live blocks.
func (s *Store) Read(pba alloc.PBA) (chunk.ContentID, bool) {
	id, has, dead := s.v.Lookup(uint64(pba))
	return id, has && !dead
}

// Touched reports whether any block of [from, from+n) lies on a page
// some write has reached. It answers per page, so true promises
// nothing about the range itself; false says every block in it is in
// the never-written state, without probing one — what lets a sweep of a
// mostly unwritten region cost its written part.
func (s *Store) Touched(from, n uint64) bool { return s.v.Touched(from, n) }

// Residual returns the content remaining at pba even if the block is
// dead (what a disk forensics pass would see).
func (s *Store) Residual(pba alloc.PBA) (chunk.ContentID, bool) {
	id, has, _ := s.v.Lookup(uint64(pba))
	return id, has
}

// Free marks pba dead if it is live; the residual content remains until
// overwritten, and Free returns it as Residual would.
func (s *Store) Free(pba alloc.PBA) (chunk.ContentID, bool) {
	id, has, dead := s.v.Lookup(uint64(pba))
	if has && !dead {
		s.v.Mark(uint64(pba))
	}
	return id, has
}

// Len reports the number of live physical blocks: only a block holding
// content is ever marked dead.
func (s *Store) Len() int { return s.v.Len() - s.v.Marks() }

// Retain reconciles liveness with the recovered Map table: blocks in
// keep become live again (their frees never became durable), everything
// else is dead. It panics if a kept block holds no residual content —
// the data write always precedes the journal record, so that would be
// an ordering bug.
func (s *Store) Retain(keep map[alloc.PBA]bool) {
	var dead []uint64
	s.v.Each(func(pba uint64, _ chunk.ContentID, marked bool) {
		if !marked && !keep[alloc.PBA(pba)] {
			dead = append(dead, pba)
		}
	})
	for _, pba := range dead {
		s.v.Mark(pba)
	}
	for pba := range keep {
		id, ok := s.Residual(pba)
		if !ok {
			panic(fmt.Sprintf("store: recovered mapping references block %d with no content", pba))
		}
		s.v.Set(uint64(pba), id)
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
