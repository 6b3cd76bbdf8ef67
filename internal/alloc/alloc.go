// Package alloc implements the physical extent allocator backing the
// deduplicated block store.
//
// Deduplication engines in this repository are log-structured: every
// write request's unique chunks are placed in one freshly allocated
// *contiguous* run of physical blocks (so a later fully redundant write
// of the same data finds its duplicate copies "sequentially stored on
// disks", the condition POD's request classifier tests), and blocks
// whose reference count drops to zero are returned for reuse.
//
// The allocator is a classic free-extent allocator with eager
// coalescing: free extents are kept sorted by start address, and
// Free merges with both neighbours when adjacent. A run that no single
// extent can hold (AllocScattered) fills the lowest-addressed extents
// first, which keeps the physical layout compact and the fragmentation
// metrics meaningful.
//
// AllocLargest — the per-write hot path of every log-structured engine
// — is served by a lazy max-heap of (count, start) candidates layered
// over the sorted free list. Every mutation pushes the affected
// extent's new shape onto the heap; entries are validated against the
// free list when popped, so stale shapes are discarded in O(log n)
// instead of forcing a full rescan per allocation.
package alloc

import (
	"fmt"
	"sort"
)

// PBA is a physical block address, in chunk-size units.
type PBA uint64

// Extent is a contiguous run of physical blocks [Start, Start+Count).
type Extent struct {
	Start PBA
	Count uint64
}

// End returns the first block past the extent.
func (e Extent) End() PBA { return e.Start + PBA(e.Count) }

// Allocator manages a physical space of fixed size.
type Allocator struct {
	size uint64
	free []Extent // sorted by Start, pairwise disjoint, non-adjacent
	used uint64
	big  candHeap // lazy max-heap of candidate largest extents
}

// candHeap orders candidate extents by count descending, breaking ties
// by start ascending — exactly the extent a linear first-max scan of
// the sorted free list would select, so the heap-backed AllocLargest
// makes byte-identical placement decisions.
//
// The heap is hand-rolled rather than layered over container/heap:
// that interface passes elements as `any`, which boxes every pushed
// Extent onto the heap — a per-allocation cost on the hottest path of
// every log-structured engine. The ordering is a strict total order
// over live extents (starts are unique), so the maximum element is the
// same regardless of internal array layout.
type candHeap []Extent

func (h candHeap) less(i, j int) bool {
	if h[i].Count != h[j].Count {
		return h[i].Count > h[j].Count
	}
	return h[i].Start < h[j].Start
}

func (h *candHeap) push(e Extent) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *candHeap) pop() Extent {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	top := a[n]
	*h = a[:n]
	(*h).down(0)
	return top
}

func (h candHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h candHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// New returns an allocator over a space of size blocks.
func New(size uint64) *Allocator {
	a := &Allocator{size: size}
	if size > 0 {
		a.free = []Extent{{Start: 0, Count: size}}
		a.note(a.free[0])
	}
	return a
}

// note records an extent's current shape as a max-heap candidate.
// Called after every mutation that creates or reshapes a free extent;
// superseded shapes become stale and are discarded at pop time.
func (a *Allocator) note(e Extent) {
	if e.Count == 0 {
		return
	}
	a.big.push(e)
	// Bound staleness: when dead entries dominate, rebuild from the
	// free list so the heap stays O(live extents).
	if len(a.big) > 2*len(a.free)+64 {
		a.big = append(a.big[:0], a.free...)
		a.big.init()
	}
}

// liveAt reports whether an extent of exactly this shape currently
// exists in the free list.
func (a *Allocator) liveAt(e Extent) bool {
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].Start >= e.Start })
	return i < len(a.free) && a.free[i].Start == e.Start && a.free[i].Count == e.Count
}

// Size reports the total physical space in blocks.
func (a *Allocator) Size() uint64 { return a.size }

// Used reports the number of allocated blocks.
func (a *Allocator) Used() uint64 { return a.used }

// FreeBlocks reports the number of unallocated blocks.
func (a *Allocator) FreeBlocks() uint64 { return a.size - a.used }

// NumFreeExtents reports how many disjoint free extents exist — a
// direct fragmentation measure.
func (a *Allocator) NumFreeExtents() int { return len(a.free) }

// LargestFree reports the size of the largest free extent.
func (a *Allocator) LargestFree() uint64 {
	var max uint64
	for _, e := range a.free {
		if e.Count > max {
			max = e.Count
		}
	}
	return max
}

// AllocLargest reserves a contiguous run of n blocks from the largest
// free extent — the append-preferring policy of a log-structured write
// path, which keeps consecutive writes physically sequential even when
// reclaimed holes pepper the low addresses. Falls back to false when no
// extent can hold n blocks.
func (a *Allocator) AllocLargest(n uint64) (PBA, bool) {
	if n == 0 {
		return 0, false
	}
	// Discard stale candidates until the heap's top describes a live
	// extent; that extent is the true largest (lowest-start on ties),
	// because every live extent's current shape is in the heap.
	for len(a.big) > 0 && !a.liveAt(a.big[0]) {
		a.big.pop()
	}
	if len(a.big) == 0 || a.big[0].Count < n {
		return 0, false
	}
	e := a.big[0]
	a.big.pop() // its shape is about to change
	best := sort.Search(len(a.free), func(i int) bool { return a.free[i].Start >= e.Start })
	start := a.free[best].Start
	a.free[best].Start += PBA(n)
	a.free[best].Count -= n
	if a.free[best].Count == 0 {
		a.free = append(a.free[:best], a.free[best+1:]...)
	} else {
		a.note(a.free[best])
	}
	a.used += n
	return start, true
}

// AllocScattered reserves n blocks even when no contiguous run exists,
// returning the extents actually used (largest-address-first order is
// not guaranteed; extents are first-fit). It fails only when total free
// space is insufficient, in which case nothing is allocated.
func (a *Allocator) AllocScattered(n uint64) ([]Extent, bool) {
	if n == 0 {
		return nil, false
	}
	if a.FreeBlocks() < n {
		return nil, false
	}
	var out []Extent
	remaining := n
	for remaining > 0 {
		// take from the first free extent
		e := &a.free[0]
		take := e.Count
		if take > remaining {
			take = remaining
		}
		out = append(out, Extent{Start: e.Start, Count: take})
		e.Start += PBA(take)
		e.Count -= take
		if e.Count == 0 {
			a.free = a.free[1:]
		} else {
			a.note(*e)
		}
		remaining -= take
	}
	a.used += n
	return out, true
}

// Reserve marks the specific run [start, start+n) allocated, removing
// it from whatever free extent contains it (crash recovery rebuilds
// allocator occupancy from the recovered Map table this way). It
// returns false without changes when any block of the run is already
// allocated or out of range.
func (a *Allocator) Reserve(start PBA, n uint64) bool {
	if n == 0 || uint64(start)+n > a.size {
		return false
	}
	// find the free extent containing start
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].End() > start })
	if i == len(a.free) || a.free[i].Start > start || a.free[i].End() < start+PBA(n) {
		return false
	}
	e := a.free[i]
	left := Extent{Start: e.Start, Count: uint64(start - e.Start)}
	right := Extent{Start: start + PBA(n), Count: uint64(e.End() - (start + PBA(n)))}
	switch {
	case left.Count > 0 && right.Count > 0:
		a.free[i] = left
		a.free = append(a.free, Extent{})
		copy(a.free[i+2:], a.free[i+1:])
		a.free[i+1] = right
		a.note(left)
		a.note(right)
	case left.Count > 0:
		a.free[i] = left
		a.note(left)
	case right.Count > 0:
		a.free[i] = right
		a.note(right)
	default:
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	a.used += n
	return true
}

// Free returns the run [start, start+n) to the free pool, coalescing
// with adjacent free extents. Freeing an unallocated or out-of-range
// block panics: callers (the map table's refcounting) must never
// double-free, and catching that immediately is worth more than a
// recoverable error.
func (a *Allocator) Free(start PBA, n uint64) {
	if n == 0 {
		return
	}
	if uint64(start)+n > a.size {
		panic(fmt.Sprintf("alloc: Free out of range: [%d,%d) size %d", start, uint64(start)+n, a.size))
	}
	// locate insertion point
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].Start >= start })
	// overlap checks against neighbours
	if i > 0 && a.free[i-1].End() > start {
		panic(fmt.Sprintf("alloc: double free: [%d,%d) overlaps free extent [%d,%d)",
			start, uint64(start)+n, a.free[i-1].Start, a.free[i-1].End()))
	}
	if i < len(a.free) && (Extent{Start: start, Count: n}).End() > a.free[i].Start {
		panic(fmt.Sprintf("alloc: double free: [%d,%d) overlaps free extent [%d,%d)",
			start, uint64(start)+n, a.free[i].Start, a.free[i].End()))
	}

	mergeLeft := i > 0 && a.free[i-1].End() == start
	mergeRight := i < len(a.free) && PBA(uint64(start)+n) == a.free[i].Start
	switch {
	case mergeLeft && mergeRight:
		a.free[i-1].Count += n + a.free[i].Count
		a.free = append(a.free[:i], a.free[i+1:]...)
		a.note(a.free[i-1])
	case mergeLeft:
		a.free[i-1].Count += n
		a.note(a.free[i-1])
	case mergeRight:
		a.free[i].Start = start
		a.free[i].Count += n
		a.note(a.free[i])
	default:
		a.free = append(a.free, Extent{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = Extent{Start: start, Count: n}
		a.note(a.free[i])
	}
	a.used -= n
}

// FreeExtents returns a copy of the free list, for tests and metrics.
func (a *Allocator) FreeExtents() []Extent {
	return append([]Extent(nil), a.free...)
}

// CheckInvariants verifies the internal free-list invariants: sorted,
// disjoint, non-adjacent (fully coalesced), within bounds, and
// consistent with the used counter. It returns a descriptive error for
// the first violation found, or nil. Exposed for property tests.
func (a *Allocator) CheckInvariants() error {
	var total uint64
	for i, e := range a.free {
		if e.Count == 0 {
			return fmt.Errorf("extent %d is empty", i)
		}
		if uint64(e.Start)+e.Count > a.size {
			return fmt.Errorf("extent %d out of bounds: [%d,%d)", i, e.Start, e.End())
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.End() > e.Start {
				return fmt.Errorf("extents %d,%d overlap", i-1, i)
			}
			if prev.End() == e.Start {
				return fmt.Errorf("extents %d,%d not coalesced", i-1, i)
			}
		}
		total += e.Count
	}
	if total+a.used != a.size {
		return fmt.Errorf("accounting: free %d + used %d != size %d", total, a.used, a.size)
	}
	// Heap invariant: every live extent's current shape must be a
	// candidate, or AllocLargest could silently pick a smaller extent.
	have := make(map[Extent]bool, len(a.big))
	for _, e := range a.big {
		have[e] = true
	}
	for i, e := range a.free {
		if !have[e] {
			return fmt.Errorf("extent %d %v missing from candidate heap", i, e)
		}
	}
	return nil
}
