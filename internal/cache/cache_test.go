package cache

import (
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatal("miss on present key")
	}
	ev, evicted := c.Put(3, "c") // evicts 2 (1 was promoted by Get)
	if !evicted || ev.Key != 2 {
		t.Fatalf("evicted = %+v,%v, want key 2", ev, evicted)
	}
	if c.Contains(2) {
		t.Fatal("evicted key still present")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUUpdateDoesNotEvict(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	_, evicted := c.Put(1, 11)
	if evicted {
		t.Fatal("update must not evict")
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatal("update lost")
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU[int, int](0)
	ev, evicted := c.Put(1, 1)
	if !evicted || ev.Key != 1 {
		t.Fatal("zero-cap cache must bounce inserts back as evictions")
	}
	if c.Len() != 0 {
		t.Fatal("zero-cap cache must stay empty")
	}
}

func TestLRUNegativeCapacityClamped(t *testing.T) {
	c := NewLRU[int, int](-5)
	if c.Cap() != 0 {
		t.Fatal("negative capacity must clamp to 0")
	}
}

func TestLRUHitMissAccounting(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestLRUPeekDoesNotPromote(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Peek(1)          // must NOT promote
	c.Put(3, 3)        // evicts 1
	if c.Contains(1) { // would still be present if Peek promoted
		t.Fatal("Peek promoted")
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 1)
	if !c.Remove(1) || c.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
}

func TestLRUResizeEvictsOldestFirst(t *testing.T) {
	c := NewLRU[int, int](4)
	for i := 1; i <= 4; i++ {
		c.Put(i, i)
	}
	ev := c.Resize(2)
	if len(ev) != 2 || ev[0].Key != 1 || ev[1].Key != 2 {
		t.Fatalf("resize evictions = %+v", ev)
	}
	if c.Cap() != 2 || c.Len() != 2 {
		t.Fatal("resize bookkeeping wrong")
	}
	if ev2 := c.Resize(10); len(ev2) != 0 {
		t.Fatal("growing must not evict")
	}
}

func TestLRUOldestAndEach(t *testing.T) {
	c := NewLRU[int, int](3)
	if _, ok := c.Oldest(); ok {
		t.Fatal("empty cache has no oldest")
	}
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	if k, _ := c.Oldest(); k != 1 {
		t.Fatalf("oldest = %d, want 1", k)
	}
	var order []int
	c.Each(func(k, v int) bool {
		order = append(order, k)
		return true
	})
	if len(order) != 3 || order[0] != 3 || order[2] != 1 {
		t.Fatalf("Each order = %v, want MRU->LRU", order)
	}
	var first []int
	c.Each(func(k, v int) bool {
		first = append(first, k)
		return false
	})
	if len(first) != 1 {
		t.Fatal("Each early stop failed")
	}
}

func TestGhostHit(t *testing.T) {
	g := NewGhost[int](2)
	g.Add(1)
	g.Add(2)
	if !g.Hit(1) {
		t.Fatal("expected ghost hit")
	}
	if g.Hit(1) {
		t.Fatal("ghost hit must consume the entry")
	}
	if g.GhostHits() != 1 {
		t.Fatalf("ghost hits = %d", g.GhostHits())
	}
	g.ResetStats()
	if g.GhostHits() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestGhostCapacity(t *testing.T) {
	g := NewGhost[int](2)
	g.Add(1)
	g.Add(2)
	g.Add(3) // evicts 1
	if g.Contains(1) || !g.Contains(2) || !g.Contains(3) {
		t.Fatal("ghost LRU eviction wrong")
	}
	if g.Len() != 2 {
		t.Fatalf("len = %d", g.Len())
	}
	g.Resize(1)
	if g.Len() != 1 {
		t.Fatal("ghost resize failed")
	}
	g.Remove(3)
	if g.Len() != 0 {
		t.Fatal("ghost remove failed")
	}
}

// Property: an LRU never exceeds capacity, and a Get immediately after
// Put always hits (capacity ≥ 1).
func TestLRUProperty(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLRU[uint8, int](capacity)
		for i, k := range keys {
			c.Put(k, i)
			if c.Len() > capacity {
				return false
			}
			if v, ok := c.Get(k); !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkLRU measures the slab LRU's hot operations in isolation;
// run with -benchmem — the Put and Touch paths must stay at zero
// allocations per op once the slab is warm.
func BenchmarkLRU(b *testing.B) {
	b.Run("Put", func(b *testing.B) {
		c := NewLRU[uint64, uint64](1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Put(uint64(i)%4096, uint64(i))
		}
	})
	b.Run("GetHit", func(b *testing.B) {
		c := NewLRU[uint64, uint64](1024)
		for i := uint64(0); i < 1024; i++ {
			c.Put(i, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Get(uint64(i) % 1024)
		}
	})
	b.Run("TouchHit", func(b *testing.B) {
		c := NewLRU[uint64, uint64](1024)
		for i := uint64(0); i < 1024; i++ {
			c.Put(i, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v, ok := c.Touch(uint64(i) % 1024); ok {
				*v++
			}
		}
	})
	b.Run("Take", func(b *testing.B) {
		c := NewLRU[uint64, uint64](1024)
		for i := uint64(0); i < 1024; i++ {
			c.Put(i, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i) % 1024
			if v, ok := c.Take(k); ok {
				c.Put(k, v)
			}
		}
	})
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := NewLRU[int, int](1024)
	for i := 0; i < b.N; i++ {
		c.Put(i%4096, i)
		c.Get((i * 7) % 4096)
	}
}
