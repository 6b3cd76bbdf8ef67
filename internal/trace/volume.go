package trace

import (
	"math/bits"
	"sync"

	"github.com/pod-dedup/pod/internal/chunk"
)

// Volume is a dense block → content map over the bounded address space
// [0, LBALimit). Beside each block's content it keeps one mark bit, a
// second plane that is independent of the content (a block may be
// marked without holding any). It has two users: the reference a
// read-back check or a redundancy count keeps of what each LBA holds
// (the chaos oracle's shadow, Analyze's current content), and the
// engines' physical content model, engine.Store, where a block's
// presence says it was ever written and its mark that it is dead.
//
// Blocks are indexed directly, like the Map table's LBAs: pages of one
// routing granule (PageBits) of content IDs, presence and mark bits, in
// a Pages directory — 8.25 bytes a block. A sparse volume pays one page
// per granule it touches, plus one directory leaf per 2^20 blocks that
// hold any. Pages come from a process-wide pool of zeroed pages, which
// Release hands them back to. The zero Volume is empty and ready.
type Volume struct {
	pages  Pages[volPage]
	n      int // blocks holding content
	marked int // blocks marked
}

const (
	volPageSize = 1 << PageBits
	volPageMask = volPageSize - 1
)

type volPage struct {
	has    [volPageSize / 64]uint64
	marked [volPageSize / 64]uint64
	id     [volPageSize]chunk.ContentID
}

// volPagePool holds zeroed pages: a page belongs to one Volume from
// Get until that volume's Release, which zeroes it before Put.
var volPagePool = sync.Pool{New: func() any { return new(volPage) }}

// page returns lba's page, adding it when absent. lba must be below
// LBALimit (Slot panics past it): every door refuses a request past
// it, so one here is a bug.
func (v *Volume) page(lba uint64) *volPage {
	s := v.pages.Slot(lba >> PageBits)
	if *s == nil {
		*s = volPagePool.Get().(*volPage)
	}
	return *s
}

// Set records that lba holds id. The content is known again, so Set
// clears lba's mark.
func (v *Volume) Set(lba uint64, id chunk.ContentID) {
	p := v.page(lba)
	i := lba & volPageMask
	w, bit := i/64, uint64(1)<<(i%64)
	if p.has[w]&bit == 0 {
		p.has[w] |= bit
		v.n++
	}
	if p.marked[w]&bit != 0 {
		p.marked[w] &^= bit
		v.marked--
	}
	p.id[i] = id
}

// Lookup returns lba's content, whether it holds any, and its mark.
func (v *Volume) Lookup(lba uint64) (id chunk.ContentID, has, marked bool) {
	p := v.pages.Page(lba >> PageBits)
	if p == nil {
		return 0, false, false
	}
	i := lba & volPageMask
	w, b := i/64, i%64
	return p.id[i], p.has[w]>>b&1 != 0, p.marked[w]>>b&1 != 0
}

// Mark sets lba's mark, whether or not it holds content.
func (v *Volume) Mark(lba uint64) {
	p := v.page(lba)
	i := lba & volPageMask
	w, bit := i/64, uint64(1)<<(i%64)
	if p.marked[w]&bit == 0 {
		p.marked[w] |= bit
		v.marked++
	}
}

// Len returns how many blocks hold content.
func (v *Volume) Len() int { return v.n }

// Marks returns how many blocks are marked.
func (v *Volume) Marks() int { return v.marked }

// Touched reports whether any block of [from, from+n) lies on a page
// the volume holds, one a Set or Mark reached. It answers per page, so
// true promises nothing about the range itself; false says no block in
// it holds content or a mark. It costs what Pages.Any does, not the
// range's length, and ignores the part at or past LBALimit.
func (v *Volume) Touched(from, n uint64) bool {
	if n == 0 || from >= LBALimit {
		return false
	}
	last := uint64(LBALimit - 1)
	if n-1 < last-from {
		last = from + n - 1
	}
	return v.pages.Any(from>>PageBits, last>>PageBits)
}

// Each visits every block holding content in ascending order, with its
// content and mark. fn must not change the volume.
func (v *Volume) Each(fn func(lba uint64, id chunk.ContentID, marked bool)) {
	v.pages.Each(func(pg uint64, p *volPage) bool {
		base := pg << PageBits
		for w, word := range p.has {
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				i := w*64 + b
				fn(base+uint64(i), p.id[i], p.marked[w]>>b&1 != 0)
			}
		}
		return true
	})
}

// Release empties the volume and hands its pages, zeroed, to the
// process-wide pool every volume draws its pages from: an engine's
// content model is released at teardown, so the next engine's pages
// cost no allocation.
func (v *Volume) Release() {
	v.pages.Clear(func(p *volPage) {
		*p = volPage{}
		volPagePool.Put(p)
	})
	v.n, v.marked = 0, 0
}
