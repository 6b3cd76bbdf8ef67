package engine

import (
	"math"
	"slices"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/trace"
)

// storePage is the content model's page: one routing granule of blocks.
const storePage = 1 << trace.PageBits

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	s.Write(5, 100)
	if id, ok := s.Read(5); !ok || id != 100 {
		t.Fatal("read back failed")
	}
	s.Free(5)
	if _, ok := s.Read(5); ok {
		t.Fatal("freed block still readable")
	}
	if s.Len() != 0 {
		t.Fatal("len wrong")
	}
}

// TestStoreTouched: the page-granular "ever written" query is true
// exactly for ranges overlapping a page some write reached — whatever
// became of the block since — and costs the pages present, not the
// range: it asks about 2^40 blocks, past the last page.
func TestStoreTouched(t *testing.T) {
	s := NewStore()
	if s.Touched(0, 1<<40) {
		t.Fatal("empty store reports a written page")
	}
	const pg = storePage
	s.Write(3*pg+7, 1) // page 3; pages 0–2 stay unallocated
	s.Free(3*pg + 7)   // dead, but written once
	for _, c := range []struct {
		from, n uint64
		want    bool
	}{
		{0, 3 * pg, false},       // everything below the page
		{0, 3*pg + 1, true},      // one block into it
		{3*pg + 100, 1, true},    // a block of the page that was never written itself
		{4*pg - 1, 256, true},    // its last block, running into the next page
		{4 * pg, 1 << 40, false}, // everything above it, past the last page
		{0, 1 << 40, true},       // the whole address space and beyond
		{0, math.MaxUint64, true},
		{3 * pg, 0, false}, // an empty range
		{2*pg + 5, pg - 5, false},
		{trace.LBALimit, 1 << 20, false}, // wholly past the bound
	} {
		if got := s.Touched(c.from, c.n); got != c.want {
			t.Errorf("Touched(%d, %d) = %v, want %v", c.from, c.n, got, c.want)
		}
	}
	s.Release()
	if s.Touched(0, 1<<40) {
		t.Fatal("released store reports a written page")
	}
}

func TestStoreMustMatchPanics(t *testing.T) {
	s := NewStore()
	s.Write(1, 10)
	s.MustMatch(1, 10) // fine
	for _, c := range []struct {
		pba alloc.PBA
		id  chunk.ContentID
	}{{1, 11}, {2, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			s.MustMatch(c.pba, c.id)
		}()
	}
}

// TestStoreFreeLeavesUnwrittenBlocksAlone: freeing a block no write
// reached (or one already dead) changes nothing — no page, no count,
// no residual.
func TestStoreFreeLeavesUnwrittenBlocksAlone(t *testing.T) {
	s := NewStore()
	if id, ok := s.Free(9); ok || id != 0 {
		t.Fatalf("Free of a never-written block returned %d, %v", id, ok)
	}
	if s.Len() != 0 || s.Touched(0, storePage) {
		t.Fatalf("after freeing a never-written block: %d live, page touched %v", s.Len(), s.Touched(0, storePage))
	}
	s.Write(10, 7)
	s.Free(10)
	if id, ok := s.Free(10); !ok || id != 7 || s.Len() != 0 {
		t.Fatalf("second Free returned %d, %v with %d live; want the residual 7 and none live", id, ok, s.Len())
	}
	if _, ok := s.Residual(9); ok {
		t.Fatal("a never-written block holds residual content")
	}
}

// TestStoreFreeKeepsResidual: a freed block keeps its content for the
// forget-by-content path (Free's result, Residual) and for recovery,
// which brings a kept block back live and leaves the rest dead.
func TestStoreFreeKeepsResidual(t *testing.T) {
	s := NewStore()
	for pba := alloc.PBA(0); pba < 4; pba++ {
		s.Write(pba, chunk.ContentID(100+pba))
	}
	if id, ok := s.Free(1); !ok || id != 101 {
		t.Fatalf("Free(1) = %d, %v; want the residual 101", id, ok)
	}
	s.Free(2)
	if id, ok := s.Residual(1); !ok || id != 101 {
		t.Fatalf("Residual(1) = %d, %v after Free; want 101", id, ok)
	}
	s.Retain(map[alloc.PBA]bool{1: true, 3: true})
	for pba, want := range []bool{false, true, false, true} {
		if id, ok := s.Read(alloc.PBA(pba)); ok != want || (ok && id != chunk.ContentID(100+pba)) {
			t.Errorf("after Retain, Read(%d) = %d, %v; want live %v", pba, id, ok, want)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("%d live after Retain, want 2", s.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a block with no content did not panic")
		}
	}()
	s.Retain(map[alloc.PBA]bool{9: true})
}

// TestStoreReleaseZeroesPages: pages a released store hands back to
// the pool come out empty in the next store, whichever blocks the old
// one wrote or freed.
func TestStoreReleaseZeroesPages(t *testing.T) {
	const pages = 64
	for round := 0; round < 4; round++ {
		s := NewStore()
		for pg := alloc.PBA(0); pg < pages; pg++ {
			s.Write(pg*storePage+5, 1)
			s.Write(pg*storePage+6, 2)
			s.Free(pg*storePage + 6)
		}
		s.Release()
		if s.Len() != 0 || s.Touched(0, pages*storePage) {
			t.Fatalf("round %d: a released store holds %d live blocks", round, s.Len())
		}
		next := NewStore()
		for pg := alloc.PBA(0); pg < pages; pg++ {
			next.Write(pg*storePage+9, 3)
		}
		for pg := alloc.PBA(0); pg < pages; pg++ {
			if _, ok := next.Residual(pg*storePage + 5); ok {
				t.Fatalf("round %d: a fresh store's page %d holds a released store's block", round, pg)
			}
			if _, ok := next.Residual(pg*storePage + 6); ok {
				t.Fatalf("round %d: a fresh store's page %d holds a released store's dead block", round, pg)
			}
		}
		if next.Len() != pages {
			t.Fatalf("round %d: %d live in a fresh store, want %d", round, next.Len(), pages)
		}
		next.Release()
	}
}

// storePBA picks a block from one selector byte: the first blocks,
// either side of the first sixteen page edges, scattered pages, and
// the last blocks below the bound.
func storePBA(b byte) alloc.PBA {
	switch {
	case b < 64:
		return alloc.PBA(b)
	case b < 128:
		return alloc.PBA(b>>1%16+1)*storePage - 1 + alloc.PBA(b&1)
	case b < 192:
		return alloc.PBA(b) * 7919
	default:
		return trace.LBALimit - 1 - alloc.PBA(b%8)
	}
}

// storeSpans are the range lengths a Touched op asks about.
var storeSpans = [...]uint64{0, 1, 100, storePage, 3*storePage + 5, 1 << 40, math.MaxUint64}

// runStoreOps drives a Store through data, two bytes per operation
// (op, block selector), against a map model of residual content and
// liveness and a set of the pages a write reached: Write, Free (and
// what it returns), Read and Residual, Touched over a range from the
// block, Retain with a keep set the op byte picks from the written
// blocks, and Release with the store used again afterwards. Len is
// checked after every operation, every block at the end.
func runStoreOps(t *testing.T, data []byte) {
	type cell struct {
		id   chunk.ContentID
		live bool
	}
	s := NewStore()
	defer s.Release()
	model := map[alloc.PBA]cell{}
	pages := map[uint64]bool{}
	for i := 0; i+1 < len(data); i += 2 {
		op, pba := data[i], storePBA(data[i+1])
		switch op % 8 {
		case 0, 1:
			id := chunk.ContentID(i / 2)
			s.Write(pba, id)
			model[pba] = cell{id, true}
			pages[uint64(pba)/storePage] = true
		case 2:
			id, ok := s.Free(pba)
			c, mok := model[pba]
			if ok != mok || id != c.id {
				t.Fatalf("op %d: Free(%d) = %d, %v; model %d, %v", i/2, pba, id, ok, c.id, mok)
			}
			if mok {
				model[pba] = cell{c.id, false}
			}
		case 3:
			c, mok := model[pba]
			if id, ok := s.Read(pba); ok != (mok && c.live) || (ok && id != c.id) {
				t.Fatalf("op %d: Read(%d) = %d, %v; model %+v, %v", i/2, pba, id, ok, c, mok)
			}
			if id, ok := s.Residual(pba); ok != mok || id != c.id {
				t.Fatalf("op %d: Residual(%d) = %d, %v; model %+v, %v", i/2, pba, id, ok, c, mok)
			}
		case 4:
			n := storeSpans[int(op/8)%len(storeSpans)]
			last := uint64(trace.LBALimit - 1)
			if n > 0 && n-1 < last-uint64(pba) {
				last = uint64(pba) + n - 1
			}
			want := false
			for pg := range pages {
				want = want || n > 0 && pg >= uint64(pba)/storePage && pg <= last/storePage
			}
			if got := s.Touched(uint64(pba), n); got != want {
				t.Fatalf("op %d: Touched(%d, %d) = %v, model %v", i/2, pba, n, got, want)
			}
		case 5, 6:
			keep := map[alloc.PBA]bool{}
			for b, c := range model {
				if uint64(b)*0x9E3779B97F4A7C15>>(59+op/8%5)&1 != 0 {
					keep[b] = true
				}
				model[b] = cell{c.id, keep[b]}
			}
			s.Retain(keep)
		case 7:
			s.Release()
			clear(model)
			clear(pages)
		}
		live := 0
		for _, c := range model {
			if c.live {
				live++
			}
		}
		if s.Len() != live {
			t.Fatalf("op %d: Len = %d, model %d", i/2, s.Len(), live)
		}
	}
	blocks := make([]alloc.PBA, 0, len(model))
	for pba := range model {
		blocks = append(blocks, pba)
	}
	slices.Sort(blocks)
	for _, pba := range blocks {
		c := model[pba]
		if id, ok := s.Read(pba); ok != c.live || (ok && id != c.id) {
			t.Fatalf("end: Read(%d) = %d, %v; model %+v", pba, id, ok, c)
		}
	}
}

// FuzzStoreOps holds the content model to a map model; its committed
// corpus replays in tier-1.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 5, 3, 5, 2, 5, 3, 5, 2, 5})                 // write, read, free, read, free again
	f.Add([]byte{2, 9, 4, 9, 0, 65, 4, 0, 12, 64, 20, 130})     // free unwritten, then Touched either side of a page edge
	f.Add([]byte{0, 1, 0, 2, 2, 1, 5, 0, 3, 1, 3, 2, 6, 0})     // Retain a freed block and drop a live one
	f.Add([]byte{0, 200, 1, 255, 44, 200, 52, 0, 7, 0, 3, 200}) // the last blocks, Touched past the bound, Release
	f.Add([]byte{0, 130, 7, 0, 0, 130, 3, 130, 2, 130, 4, 130}) // a page released and drawn again
	f.Fuzz(func(t *testing.T, data []byte) {
		runStoreOps(t, data)
	})
}

func failOnAllocs(b *testing.B, what string, f func()) {
	b.Helper()
	b.StopTimer()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		b.Fatalf("%s: %.2f allocs/op, want 0", what, avg)
	}
}

// BenchmarkStorePath: one block's life in the content model on warm
// pages — Write, Read, Free — at 0 allocs/op (make check's
// zero-allocation step runs it as a gate).
func BenchmarkStorePath(b *testing.B) {
	const blocks = 1 << 16
	s := NewStore()
	defer s.Release()
	for pba := alloc.PBA(0); pba < blocks; pba++ {
		s.Write(pba, 1)
	}
	var i uint64
	op := func() {
		pba := alloc.PBA(i * 7919 % blocks)
		s.Write(pba, chunk.ContentID(i))
		if id, ok := s.Read(pba); !ok || id != chunk.ContentID(i) {
			b.Fatalf("block %d reads %d, %v after writing %d", pba, id, ok, i)
		}
		s.Free(pba)
		i++
	}
	b.ResetTimer()
	for range b.N {
		op()
	}
	failOnAllocs(b, "store write/read/free", op)
}
