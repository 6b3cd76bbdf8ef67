package cache

import (
	"testing"
	"testing/quick"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU[uint64, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatal("miss on present key")
	}
	ev, evicted := c.Put(3, "c") // evicts 2 (1 was promoted by Get)
	if !evicted || ev.Key != 2 {
		t.Fatalf("evicted = %+v,%v, want key 2", ev, evicted)
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("evicted key still present")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUUpdateDoesNotEvict(t *testing.T) {
	c := NewLRU[uint64, int](2)
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
	c := NewLRU[uint64, int](0)
	ev, evicted := c.Put(1, 1)
	if !evicted || ev.Key != 1 {
		t.Fatal("zero-cap cache must bounce inserts back as evictions")
	}
	if c.Len() != 0 {
		t.Fatal("zero-cap cache must stay empty")
	}
}

func TestLRUNegativeCapacityClamped(t *testing.T) {
	c := NewLRU[uint64, int](-5)
	if c.Cap() != 0 {
		t.Fatal("negative capacity must clamp to 0")
	}
}

func TestLRUPeekDoesNotPromote(t *testing.T) {
	c := NewLRU[uint64, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Peek(1)                   // must NOT promote
	c.Put(3, 3)                 // evicts 1
	if _, ok := c.Peek(1); ok { // would still be present if Peek promoted
		t.Fatal("Peek promoted")
	}
}

// Property: an LRU never exceeds capacity, and a Get immediately after
// Put always hits (capacity ≥ 1).
func TestLRUProperty(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := NewLRU[uint64, int](capacity)
		for i, k := range keys {
			c.Put(uint64(k), i)
			if c.Len() > capacity {
				return false
			}
			if v, ok := c.Get(uint64(k)); !ok || v != i {
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
}

func BenchmarkLRUPutGet(b *testing.B) {
	c := NewLRU[uint64, int](1024)
	for i := 0; i < b.N; i++ {
		c.Put(uint64(i%4096), i)
		c.Get(uint64(i * 7 % 4096))
	}
}
