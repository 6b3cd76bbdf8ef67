package trace

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/pod-dedup/pod/internal/chunk"
)

// volLBA picks an LBA from one selector byte: the first LBAs of the
// first page, either side of the first sixteen page edges, scattered
// pages, and the last LBAs below LBALimit.
func volLBA(b byte) uint64 {
	switch {
	case b < 64:
		return uint64(b)
	case b < 128:
		return uint64(b>>1%16+1)*volPageSize - 1 + uint64(b&1)
	case b < 192:
		return uint64(b) * 7919
	default:
		return LBALimit - 1 - uint64(b%8)
	}
}

// volSpans are the range lengths a Touched op asks about.
var volSpans = [...]uint64{0, 1, 100, volPageSize, 3*volPageSize + 5, 1 << 40, math.MaxUint64}

// runVolumeOps drives a Volume through data, two bytes per operation
// (op, LBA selector), against a Go-map model: Set, Mark, Lookup,
// Touched over a range from the LBA (against the set of pages a
// Set or Mark reached), and Release with the volume used again
// afterwards; the counts after every operation, and at the end a walk
// that must visit exactly the model's LBAs, ascending, with their
// content and marks.
func runVolumeOps(t *testing.T, data []byte) {
	var v Volume
	defer v.Release()
	want := map[uint64]chunk.ContentID{}
	marked := map[uint64]bool{}
	pages := map[uint64]bool{}
	for i := 0; i+1 < len(data); i += 2 {
		op, lba := data[i], volLBA(data[i+1])
		switch op % 8 {
		case 0, 1, 6:
			id := chunk.ContentID(i / 2) // the first is content 0
			v.Set(lba, id)
			want[lba] = id
			delete(marked, lba)
			pages[lba>>PageBits] = true
		case 2, 7:
			v.Mark(lba)
			marked[lba] = true
			pages[lba>>PageBits] = true
		case 3:
			mid, mok := want[lba]
			if id, has, mark := v.Lookup(lba); has != mok || id != mid || mark != marked[lba] {
				t.Fatalf("op %d: Lookup(%d) = %d, %v, %v; model %d, %v, %v", i/2, lba, id, has, mark, mid, mok, marked[lba])
			}
		case 4:
			n := volSpans[int(op/8)%len(volSpans)]
			last := uint64(LBALimit - 1)
			if n > 0 && n-1 < last-lba {
				last = lba + n - 1
			}
			touched := false
			for pg := range pages {
				touched = touched || n > 0 && pg >= lba>>PageBits && pg <= last>>PageBits
			}
			if got := v.Touched(lba, n); got != touched {
				t.Fatalf("op %d: Touched(%d, %d) = %v, model %v", i/2, lba, n, got, touched)
			}
		case 5:
			v.Release()
			clear(want)
			clear(marked)
			clear(pages)
		}
		if v.Marks() != len(marked) || v.Len() != len(want) {
			t.Fatalf("op %d: %d marked and %d holding content, model %d and %d", i/2, v.Marks(), v.Len(), len(marked), len(want))
		}
	}
	lbas := make([]uint64, 0, len(want))
	for lba := range want {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	k := 0
	v.Each(func(lba uint64, id chunk.ContentID, mark bool) {
		if k >= len(lbas) || lba != lbas[k] || id != want[lba] || mark != marked[lba] {
			t.Fatalf("visit %d: lba %d, content %d, marked %v; model %v", k, lba, id, mark, lbas[min(k, len(lbas)-1):])
		}
		k++
	})
	if k != len(lbas) {
		t.Fatalf("the walk visited %d LBAs, model holds %d", k, len(lbas))
	}
}

// FuzzVolume holds Volume to a Go-map model.
func FuzzVolume(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 2, 0, 3, 0})            // set, get, mark, get lba 0
	f.Add([]byte{0, 65, 1, 64, 2, 65, 3, 64, 3, 65}) // either side of the first page edge
	f.Add([]byte{2, 200, 0, 255, 2, 255, 0, 200})    // the last LBAs: marked, then set
	f.Add([]byte{1, 130, 0, 190, 2, 160, 3, 130, 0, 10, 3, 190})
	f.Add([]byte{2, 70, 4, 0, 12, 69, 44, 200, 5, 0, 3, 70, 4, 0}) // Touched around a marked page, Release, then empty
	f.Fuzz(func(t *testing.T, data []byte) {
		runVolumeOps(t, data)
	})
}

// TestVolumeSetPastTheBoundPanics: every door refuses an LBA past the
// bound, so one reaching the volume is a bug.
func TestVolumeSetPastTheBoundPanics(t *testing.T) {
	var v Volume
	v.Set(LBALimit-1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Set past the logical-address bound did not panic")
		}
	}()
	v.Set(LBALimit, 1)
}

// TestVolumeSparseFootprint: one LBA in each of 10 000 granules, every
// eighth (the share one shard of eight is dealt), costs one page per
// granule plus one directory leaf per 2^20 LBAs spanned — not pages
// wider than a granule, and not a directory sized by the highest LBA.
func TestVolumeSparseFootprint(t *testing.T) {
	const granules, stride = 10_000, 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := new(Volume)
	for g := uint64(0); g < granules; g++ {
		v.Set(g*stride*volPageSize+g%volPageSize, chunk.ContentID(g))
	}
	runtime.ReadMemStats(&after)
	n := 0
	v.Each(func(uint64, chunk.ContentID, bool) { n++ })
	if n != granules {
		t.Fatalf("%d LBAs set, want %d", n, granules)
	}
	pages := uint64(granules) * uint64(unsafe.Sizeof(volPage{})) * 5 / 4 // the allocator's size class
	leaves := uint64(granules*stride/dirFan + 1)
	dir := uint64(unsafe.Sizeof(*v)) + leaves*uint64(unsafe.Sizeof([dirFan]*volPage{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > pages+dir {
		t.Fatalf("%d granules of one LBA each allocated %d B, want at most %d (pages) + %d (directory)", granules, got, pages, dir)
	}
	runtime.KeepAlive(v)
}

// TestPagesFollowTouchedSpans: a directory holding the first and the
// last page below the bound allocates two leaves and nothing for the
// span between, walks its pages in order, and Clear empties it.
func TestPagesFollowTouchedSpans(t *testing.T) {
	var d Pages[int]
	first, last := 7, 9
	if avg := testing.AllocsPerRun(1, func() {
		d = Pages[int]{}
		*d.Slot(0), *d.Slot(maxPages - 1) = &first, &last
	}); avg != 2 {
		t.Fatalf("two pages a bound apart: %.0f allocations, want 2 leaves", avg)
	}
	if d.Page(1) != nil || d.Page(maxPages/2) != nil || d.Page(maxPages) != nil || d.Page(1<<63) != nil {
		t.Fatal("a page never added is present")
	}
	var walk []uint64
	d.Each(func(pg uint64, p *int) bool { walk = append(walk, pg, uint64(*p)); return true })
	if !slices.Equal(walk, []uint64{0, 7, maxPages - 1, 9}) {
		t.Fatalf("walk %v, want page 0 (7) then page %d (9)", walk, maxPages-1)
	}
	var put []int
	d.Clear(func(p *int) { put = append(put, *p) })
	if !slices.Equal(put, []int{7, 9}) || d.Page(0) != nil || d.Page(maxPages-1) != nil {
		t.Fatalf("Clear handed back %v and left page 0 %v, last %v", put, d.Page(0), d.Page(maxPages-1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Slot past the bound did not panic")
		}
	}()
	d.Slot(maxPages)
}
