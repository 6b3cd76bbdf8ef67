// Package cache provides the replacement-policy building blocks used by
// POD's storage cache: a generic LRU and a metadata-only ghost LRU.
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
type LRU[K comparable, V any] struct {
	cap   int
	slab  []entry[K, V] // slot 0 is the sentinel of the circular list
	freeL int32         // head of the free-slot list, linked via next; -1 none
	items *probe.Map[K, int32]

	hits, misses int64
}

// NewLRU returns an empty LRU with the given capacity.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
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

// Hits and Misses report Get accounting.
func (c *LRU[K, V]) Hits() int64   { return c.hits }
func (c *LRU[K, V]) Misses() int64 { return c.misses }

// ResetStats clears hit/miss accounting without touching contents.
func (c *LRU[K, V]) ResetStats() { c.hits, c.misses = 0, 0 }

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
		c.hits++
		c.unlink(i)
		c.pushFront(i)
		return c.slab[i].val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Touch promotes key to most-recent and returns a pointer to its value
// for in-place mutation, with the same hit/miss accounting as Get. The
// pointer is valid only until the next mutating call on the LRU. It
// replaces the Get-then-Put idiom, which paid two map lookups and two
// list moves per update on the fingerprint-index hot path.
func (c *LRU[K, V]) Touch(key K) (*V, bool) {
	if i, ok := c.items.Get(key); ok {
		c.hits++
		c.unlink(i)
		c.pushFront(i)
		return &c.slab[i].val, true
	}
	c.misses++
	return nil, false
}

// Peek returns the value without promoting or accounting.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	if i, ok := c.items.Get(key); ok {
		return c.slab[i].val, true
	}
	var zero V
	return zero, false
}

// Contains reports presence without promoting or accounting.
func (c *LRU[K, V]) Contains(key K) bool {
	_, ok := c.items.Get(key)
	return ok
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

// Remove deletes key, reporting whether it was present.
func (c *LRU[K, V]) Remove(key K) bool {
	i, ok := c.items.Take(key)
	if !ok {
		return false
	}
	c.unlink(i)
	c.release(i)
	return true
}

// Take removes key and returns its value — a single-traversal
// Peek+Remove for callers that must surface the evicted value.
func (c *LRU[K, V]) Take(key K) (V, bool) {
	i, ok := c.items.Take(key)
	if !ok {
		var zero V
		return zero, false
	}
	v := c.slab[i].val
	c.unlink(i)
	c.release(i)
	return v, true
}

// evictOldest removes and returns the LRU entry.
func (c *LRU[K, V]) evictOldest() (Evicted[K, V], bool) {
	i := c.slab[0].prev
	if i == 0 {
		return Evicted[K, V]{}, false
	}
	e := Evicted[K, V]{Key: c.slab[i].key, Val: c.slab[i].val}
	c.unlink(i)
	c.items.Take(e.Key)
	c.release(i)
	return e, true
}

// Resize changes the capacity, returning everything evicted when
// shrinking (oldest first).
func (c *LRU[K, V]) Resize(capacity int) []Evicted[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	c.cap = capacity
	var out []Evicted[K, V]
	for c.items.Len() > c.cap {
		if ev, ok := c.evictOldest(); ok {
			out = append(out, ev)
		}
	}
	return out
}

// Oldest returns the least-recently-used key without removing it.
func (c *LRU[K, V]) Oldest() (K, bool) {
	i := c.slab[0].prev
	if i == 0 {
		var zero K
		return zero, false
	}
	return c.slab[i].key, true
}

// Each visits entries from most to least recently used; return false
// from fn to stop early.
func (c *LRU[K, V]) Each(fn func(K, V) bool) {
	for i := c.slab[0].next; i != 0; i = c.slab[i].next {
		if !fn(c.slab[i].key, c.slab[i].val) {
			return
		}
	}
}

// Ghost is a metadata-only LRU of keys, used to estimate the benefit of
// a larger cache: when a key evicted from the actual cache is re-
// referenced while still in the ghost, a bigger cache would have hit.
type Ghost[K comparable] struct {
	lru *LRU[K, struct{}]

	ghostHits int64
}

// NewGhost returns an empty ghost list with the given capacity.
func NewGhost[K comparable](capacity int) *Ghost[K] {
	return &Ghost[K]{lru: NewLRU[K, struct{}](capacity)}
}

// Add records an eviction from the actual cache.
func (g *Ghost[K]) Add(key K) { g.lru.Put(key, struct{}{}) }

// Hit tests whether key is present; if so it is removed (the caller is
// about to re-admit it to the actual cache) and the ghost-hit counter
// increments.
func (g *Ghost[K]) Hit(key K) bool {
	if g.lru.Remove(key) {
		g.ghostHits++
		return true
	}
	return false
}

// Contains tests presence without removing.
func (g *Ghost[K]) Contains(key K) bool { return g.lru.Contains(key) }

// Remove deletes key (used when the actual cache re-admits through a
// different path).
func (g *Ghost[K]) Remove(key K) { g.lru.Remove(key) }

// Len reports the number of ghost entries.
func (g *Ghost[K]) Len() int { return g.lru.Len() }

// Resize changes the ghost capacity.
func (g *Ghost[K]) Resize(capacity int) { g.lru.Resize(capacity) }

// EachMRU visits ghost keys from most to least recently added; return
// false from fn to stop early.
func (g *Ghost[K]) EachMRU(fn func(K) bool) {
	g.lru.Each(func(k K, _ struct{}) bool { return fn(k) })
}

// GhostHits reports how many re-references hit the ghost since the last
// ResetStats.
func (g *Ghost[K]) GhostHits() int64 { return g.ghostHits }

// ResetStats clears the ghost-hit counter.
func (g *Ghost[K]) ResetStats() { g.ghostHits = 0 }
