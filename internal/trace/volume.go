package trace

import (
	"math/bits"

	"github.com/pod-dedup/pod/internal/chunk"
)

// Volume is a dense LBA → content map over the bounded logical address
// space: the reference a read-back check or a redundancy count keeps of
// what each block holds. Beside each block's content it keeps one mark
// bit, a second plane that is independent of the content (a block may
// be marked without holding any).
//
// LBAs are indexed directly, like the Map table's: pages of one routing
// granule (PageBits) of content IDs and presence bits, in a Pages
// directory. A sparse volume pays one page per granule it touches, plus
// one directory leaf per 2^19 LBAs that hold any. The zero Volume is
// empty and ready.
type Volume struct {
	pages  Pages[volPage]
	marked int // LBAs marked
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

// page returns lba's page, adding it when absent. lba must be below
// LBALimit (Slot panics past it): every door refuses a request past
// it, so one here is a bug.
func (v *Volume) page(lba uint64) *volPage {
	s := v.pages.Slot(lba >> PageBits)
	if *s == nil {
		*s = new(volPage)
	}
	return *s
}

// Set records that lba holds id. The content is known again, so Set
// clears lba's mark.
func (v *Volume) Set(lba uint64, id chunk.ContentID) {
	p := v.page(lba)
	i := lba & volPageMask
	w, bit := i/64, uint64(1)<<(i%64)
	p.has[w] |= bit
	if p.marked[w]&bit != 0 {
		p.marked[w] &^= bit
		v.marked--
	}
	p.id[i] = id
}

// Get returns lba's content and whether it holds any.
func (v *Volume) Get(lba uint64) (chunk.ContentID, bool) {
	p := v.pages.Page(lba >> PageBits)
	if p == nil {
		return 0, false
	}
	i := lba & volPageMask
	return p.id[i], p.has[i/64]>>(i%64)&1 != 0
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

// Marks returns how many LBAs are marked.
func (v *Volume) Marks() int { return v.marked }

// Each visits every LBA holding content in ascending order, with its
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
