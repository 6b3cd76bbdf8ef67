// Package cache provides a generic slab LRU for the bounded tables that
// sit beside POD's storage cache: the I/O-Dedup baseline's content cache
// and replica directory, and the locality estimator's per-stream
// sketches. POD's own iCache — both caches and both ghosts, and
// Full-Dedupe's hot index — is one directory of its own
// (internal/icache).
package cache

import "github.com/pod-dedup/pod/internal/probe"

// entry is one LRU element, linked into a circular intrusive list
// through slab indices (slot 0 is the sentinel). Compared to
// container/list this costs zero heap allocations per insert once the
// slab is warm, and keeps entries cache-line adjacent.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// Evicted describes one entry pushed out of an LRU.
type Evicted[K comparable, V any] struct {
	Key K
	Val V
}

// LRU is a least-recently-used cache with a capacity in entries.
// A zero capacity cache stores nothing and evicts everything
// immediately. Not safe for concurrent use.
type LRU[K probe.Key, V any] struct {
	cap   int
	slab  []entry[K, V] // slot 0 is the sentinel of the circular list
	freeL int32         // head of the free-slot list, linked via next; -1 none
	items *probe.Map[K, int32]
}

// NewLRU returns an empty LRU with the given capacity.
func NewLRU[K probe.Key, V any](capacity int) *LRU[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	// Presize the directory for small caches; large ones grow on demand
	// (the table doubles deterministically), which avoids committing
	// hundreds of MB up front for a capacity the workload may not fill.
	hint := capacity
	if hint > 1<<16 {
		hint = 1 << 16
	}
	c := &LRU[K, V]{cap: capacity, freeL: -1, items: probe.NewMap[K, int32](hint)}
	c.slab = make([]entry[K, V], 1, 8) // sentinel
	return c
}

// Len reports the number of cached entries.
func (c *LRU[K, V]) Len() int { return c.items.Len() }

// Cap reports the capacity.
func (c *LRU[K, V]) Cap() int { return c.cap }

// unlink detaches slot i from the recency list.
func (c *LRU[K, V]) unlink(i int32) {
	e := &c.slab[i]
	c.slab[e.prev].next = e.next
	c.slab[e.next].prev = e.prev
}

// pushFront links slot i in as most-recent.
func (c *LRU[K, V]) pushFront(i int32) {
	head := &c.slab[0]
	c.slab[i].prev = 0
	c.slab[i].next = head.next
	c.slab[head.next].prev = i
	head.next = i
}

// alloc grabs a slot from the free list or grows the slab.
func (c *LRU[K, V]) alloc() int32 {
	if i := c.freeL; i >= 0 {
		c.freeL = c.slab[i].next
		return i
	}
	c.slab = append(c.slab, entry[K, V]{})
	return int32(len(c.slab) - 1)
}

// release zeroes slot i (dropping key/value references for the GC) and
// returns it to the free list.
func (c *LRU[K, V]) release(i int32) {
	c.slab[i] = entry[K, V]{next: c.freeL}
	c.freeL = i
}

// Get returns the value for key, promoting it to most-recent.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	if i, ok := c.items.Get(key); ok {
		c.unlink(i)
		c.pushFront(i)
		return c.slab[i].val, true
	}
	var zero V
	return zero, false
}

// Touch promotes key to most-recent and returns a pointer to its value
// for in-place mutation. The pointer is valid only until the next
// mutating call on the LRU. It replaces the Get-then-Put idiom, which
// paid two map lookups and two list moves per update.
func (c *LRU[K, V]) Touch(key K) (*V, bool) {
	if i, ok := c.items.Get(key); ok {
		c.unlink(i)
		c.pushFront(i)
		return &c.slab[i].val, true
	}
	return nil, false
}

// Peek returns the value without promoting it.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	if i, ok := c.items.Get(key); ok {
		return c.slab[i].val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key, promoting it, and returns the entry
// evicted to make room, if any.
func (c *LRU[K, V]) Put(key K, val V) (ev Evicted[K, V], evicted bool) {
	if c.cap == 0 {
		// the directory is always empty at zero capacity, so the
		// update branch below cannot apply
		return Evicted[K, V]{Key: key, Val: val}, true
	}
	p, inserted := c.items.Ref(key)
	if !inserted {
		i := *p
		c.unlink(i)
		c.pushFront(i)
		c.slab[i].val = val
		return ev, false
	}
	i := c.alloc()
	c.slab[i].key = key
	c.slab[i].val = val
	c.pushFront(i)
	*p = i
	if c.items.Len() > c.cap {
		return c.evictOldest()
	}
	return ev, false
}

// evictOldest removes and returns the LRU entry of a non-empty cache.
func (c *LRU[K, V]) evictOldest() (Evicted[K, V], bool) {
	i := c.slab[0].prev
	e := Evicted[K, V]{Key: c.slab[i].key, Val: c.slab[i].val}
	c.unlink(i)
	c.items.Take(e.Key)
	c.release(i)
	return e, true
}
