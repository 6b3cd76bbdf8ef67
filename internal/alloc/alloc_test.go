package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	a := New(0)
	if _, ok := a.AllocLargest(1); ok {
		t.Fatal("alloc from empty space should fail")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBasic(t *testing.T) {
	a := New(100)
	p, ok := a.AllocLargest(10)
	if !ok || p != 0 {
		t.Fatalf("first alloc = %d,%v, want 0,true", p, ok)
	}
	p2, ok := a.AllocLargest(5)
	if !ok || p2 != 10 {
		t.Fatalf("second alloc = %d,%v, want 10,true", p2, ok)
	}
	if a.Used() != 15 || a.FreeBlocks() != 85 {
		t.Errorf("used/free = %d/%d", a.Used(), a.FreeBlocks())
	}
}

func TestAllocZero(t *testing.T) {
	a := New(10)
	if _, ok := a.AllocLargest(0); ok {
		t.Fatal("alloc(0) should fail")
	}
	if _, ok := a.AllocScattered(0); ok {
		t.Fatal("scattered alloc(0) should fail")
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(10)
	if _, ok := a.AllocLargest(11); ok {
		t.Fatal("oversized alloc should fail")
	}
	if _, ok := a.AllocLargest(10); !ok {
		t.Fatal("exact-fit alloc should succeed")
	}
	if _, ok := a.AllocLargest(1); ok {
		t.Fatal("alloc from full space should fail")
	}
}

func TestFreeCoalescing(t *testing.T) {
	a := New(100)
	p1, _ := a.AllocLargest(10) // [0,10)
	p2, _ := a.AllocLargest(10) // [10,20)
	p3, _ := a.AllocLargest(10) // [20,30)
	a.Free(p1, 10)
	a.Free(p3, 10)
	if n := a.NumFreeExtents(); n != 3 { // [0,10) [20,30) [30,100)... p3 merges right with tail
		// p3=[20,30) is adjacent to tail [30,100) so it coalesces: extents are [0,10) and [20,100)
		if n != 2 {
			t.Fatalf("free extents = %d", n)
		}
	}
	a.Free(p2, 10) // bridges everything -> single extent
	if n := a.NumFreeExtents(); n != 1 {
		t.Fatalf("after bridging free, extents = %d, want 1", n)
	}
	if a.LargestFree() != 100 {
		t.Fatalf("largest free = %d, want 100", a.LargestFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitReusesLowAddresses(t *testing.T) {
	a := New(100)
	p1, _ := a.AllocLargest(10)
	a.AllocLargest(10)
	a.Free(p1, 10)
	ext, ok := a.AllocScattered(5)
	if !ok || len(ext) != 1 || ext[0] != (Extent{Start: 0, Count: 5}) {
		t.Fatalf("first-fit should reuse the hole at 0, got %v", ext)
	}
}

func TestContiguousFailureWithFragmentedSpace(t *testing.T) {
	a := New(30)
	p1, _ := a.AllocLargest(10)
	_, _ = a.AllocLargest(10)
	p3, _ := a.AllocLargest(10)
	a.Free(p1, 10)
	a.Free(p3, 10)
	// 20 blocks free but no run of 15
	if _, ok := a.AllocLargest(15); ok {
		t.Fatal("contiguous alloc should fail on fragmented space")
	}
	ext, ok := a.AllocScattered(15)
	if !ok {
		t.Fatal("scattered alloc should succeed")
	}
	var total uint64
	for _, e := range ext {
		total += e.Count
	}
	if total != 15 {
		t.Fatalf("scattered total = %d, want 15", total)
	}
	if len(ext) < 2 {
		t.Fatal("scattered alloc over fragmented space must span extents")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocLargestPrefersFrontier(t *testing.T) {
	a := New(100)
	p1, _ := a.AllocLargest(10) // [0,10)
	a.AllocLargest(10)          // [10,20)
	a.Free(p1, 10)              // hole [0,10), frontier [20,100)
	p, ok := a.AllocLargest(5)
	if !ok || p != 20 {
		t.Fatalf("AllocLargest = %d,%v, want frontier at 20", p, ok)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocLargestFallsBackToHole(t *testing.T) {
	a := New(30)
	p1, _ := a.AllocLargest(10)
	a.AllocLargest(20) // exhaust the frontier
	a.Free(p1, 10)
	p, ok := a.AllocLargest(10)
	if !ok || p != p1 {
		t.Fatalf("AllocLargest = %d,%v, want the hole at %d", p, ok, p1)
	}
}

func TestAllocLargestExhausted(t *testing.T) {
	a := New(10)
	a.AllocLargest(10)
	if _, ok := a.AllocLargest(1); ok {
		t.Fatal("alloc from full space must fail")
	}
	if _, ok := a.AllocLargest(0); ok {
		t.Fatal("alloc of zero must fail")
	}
}

func TestAllocScatteredInsufficient(t *testing.T) {
	a := New(10)
	a.AllocLargest(8)
	if _, ok := a.AllocScattered(3); ok {
		t.Fatal("scattered alloc beyond free space must fail")
	}
	if a.Used() != 8 {
		t.Fatal("failed scattered alloc must not change accounting")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(100)
	p, _ := a.AllocLargest(10)
	a.Free(p, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	a.Free(p, 10)
}

func TestFreeOutOfRangePanics(t *testing.T) {
	a := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range free must panic")
		}
	}()
	a.Free(5, 10)
}

func TestFreeZeroIsNoop(t *testing.T) {
	a := New(10)
	a.Free(0, 0)
	if a.FreeBlocks() != 10 {
		t.Fatal("free(_,0) must be a no-op")
	}
}

func TestFreeExtentsCopy(t *testing.T) {
	a := New(10)
	ext := a.FreeExtents()
	ext[0].Count = 1 // mutating the copy must not affect the allocator
	if a.LargestFree() != 10 {
		t.Fatal("FreeExtents must return a copy")
	}
}

// Property: any interleaving of allocs and frees preserves all
// invariants and never hands out overlapping extents.
func TestAllocatorProperty(t *testing.T) {
	type op struct {
		alloc bool
		n     uint64
	}
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		_ = rng
		a := New(1 << 12)
		type held struct {
			start PBA
			n     uint64
		}
		var live []held
		occupied := make(map[PBA]bool)
		for _, raw := range opsRaw {
			n := uint64(raw%64) + 1
			if raw%3 != 0 || len(live) == 0 { // alloc twice as often as free
				start, ok := a.AllocLargest(n)
				if !ok {
					continue
				}
				for b := start; b < start+PBA(n); b++ {
					if occupied[b] {
						return false // overlap with a live allocation
					}
					occupied[b] = true
				}
				live = append(live, held{start, n})
			} else {
				idx := int(raw) % len(live)
				h := live[idx]
				a.Free(h.start, h.n)
				for b := h.start; b < h.start+PBA(h.n); b++ {
					delete(occupied, b)
				}
				live = append(live[:idx], live[idx+1:]...)
			}
			if err := a.CheckInvariants(); err != nil {
				return false
			}
		}
		// free everything: space must return to a single extent
		for _, h := range live {
			a.Free(h.start, h.n)
		}
		return a.CheckInvariants() == nil && a.NumFreeExtents() == 1 && a.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: AllocScattered conserves blocks exactly and returned
// extents are disjoint.
func TestAllocScatteredProperty(t *testing.T) {
	f := func(sizes []uint8, n uint16) bool {
		a := New(4096)
		// fragment: alloc many, free alternating
		var frees []Extent
		for _, s := range sizes {
			sz := uint64(s%32) + 1
			p, ok := a.AllocLargest(sz)
			if !ok {
				break
			}
			if len(frees)%2 == 0 {
				frees = append(frees, Extent{p, sz})
			} else {
				frees = append(frees, Extent{})
			}
		}
		for _, e := range frees {
			if e.Count > 0 {
				a.Free(e.Start, e.Count)
			}
		}
		want := uint64(n%512) + 1
		before := a.Used()
		ext, ok := a.AllocScattered(want)
		if !ok {
			return a.FreeBlocks() < want && a.CheckInvariants() == nil
		}
		var total uint64
		seen := make(map[PBA]bool)
		for _, e := range ext {
			total += e.Count
			for b := e.Start; b < e.End(); b++ {
				if seen[b] {
					return false
				}
				seen[b] = true
			}
		}
		return total == want && a.Used() == before+want && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := a.AllocLargest(8)
		if !ok {
			b.Fatal("space exhausted")
		}
		a.Free(p, 8)
	}
}

func TestReserveSplitsExtent(t *testing.T) {
	a := New(100)
	if !a.Reserve(40, 10) {
		t.Fatal("reserve of free range must succeed")
	}
	if a.Used() != 10 || a.NumFreeExtents() != 2 {
		t.Fatalf("used=%d extents=%d", a.Used(), a.NumFreeExtents())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// left edge, right edge, whole-extent cases
	if !a.Reserve(0, 5) || !a.Reserve(95, 5) {
		t.Fatal("edge reserves must succeed")
	}
	if !a.Reserve(5, 35) {
		t.Fatal("whole-extent reserve must succeed")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveRejectsConflicts(t *testing.T) {
	a := New(100)
	a.Reserve(10, 10)
	for _, c := range []struct{ s, n uint64 }{
		{15, 10}, // overlaps tail
		{5, 10},  // overlaps head
		{10, 10}, // exact double reserve
		{95, 10}, // out of range
		{0, 0},   // empty
	} {
		if a.Reserve(PBA(c.s), c.n) {
			t.Fatalf("reserve [%d,%d) should fail", c.s, c.s+c.n)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveThenFreeRoundTrip(t *testing.T) {
	a := New(64)
	if !a.Reserve(20, 8) {
		t.Fatal("reserve failed")
	}
	a.Free(20, 8)
	if a.Used() != 0 || a.NumFreeExtents() != 1 {
		t.Fatal("free after reserve must restore a single extent")
	}
}

// refAllocLargest is the original linear-scan policy: lowest-start
// extent of maximal count. The heap-backed implementation must pick
// byte-identical extents or replayed experiment results would shift.
func refAllocLargest(free []Extent, n uint64) (PBA, bool) {
	best := -1
	for i := range free {
		if free[i].Count >= n && (best < 0 || free[i].Count > free[best].Count) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return free[best].Start, true
}

// Property: the candidate-heap AllocLargest always selects exactly the
// extent the linear reference scan would, across arbitrary interleaved
// largest-extent / first-fit / free traffic.
func TestAllocLargestMatchesReference(t *testing.T) {
	f := func(ops []uint16) bool {
		a := New(1 << 12)
		type held struct {
			start PBA
			n     uint64
		}
		var live []held
		for _, raw := range ops {
			n := uint64(raw%48) + 1
			switch raw % 5 {
			case 0, 1, 2: // AllocLargest, checked against the reference
				want, wantOK := refAllocLargest(a.FreeExtents(), n)
				got, ok := a.AllocLargest(n)
				if ok != wantOK || (ok && got != want) {
					t.Logf("AllocLargest(%d) = %d,%v want %d,%v", n, got, ok, want, wantOK)
					return false
				}
				if ok {
					live = append(live, held{got, n})
				}
			case 3: // first-fit, possibly split over several extents
				if ext, ok := a.AllocScattered(n); ok {
					for _, e := range ext {
						live = append(live, held{e.Start, e.Count})
					}
				}
			default: // free one live run
				if len(live) > 0 {
					idx := int(raw/5) % len(live)
					h := live[idx]
					a.Free(h.start, h.n)
					live = append(live[:idx], live[idx+1:]...)
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
