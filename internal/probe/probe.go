// Package probe provides a deterministic chained hash map for the
// simulator's keyed lookup structures: the LRU caches' slot index, the
// out-of-line scanner's exact fingerprint table, Full-Dedupe's full
// index and its block reverse-index, and the global tier's fingerprint
// tables. The iCache's directory is not among them: its keys already sit
// in slots that never move, so it chains key-less buckets through those
// slots instead of storing every key a second time here.
//
// The runtime's map is general: it re-hashes every key with AES-based
// hashing, probes SIMD control groups, and grows by incremental
// rehash. The simulator's keys are of two kinds, and Key admits no
// other: 64-bit integers (LBA, PBA, ContentID, a stream's block key)
// or fingerprints whose bytes are already uniformly distributed (SHA-1,
// or the synthetic fingerprinter's murmur-style finalizer). Hashing
// collapses to one finalizer over the integer — or to reading the
// fingerprint's first eight bytes — and the layout is fully
// deterministic: it depends only on the sequence of operations, never
// on a per-process seed.
//
// Entries live in 1 024-entry pages that never move; a bucket is a
// chain through them, named by a head picked by the hash's top bits.
// Growth doubles the heads and re-links the entries without copying a
// key or a value, and a deleted entry is reused by the next insert. So
// a pointer from Find or Ref stays valid until that key is deleted.
// Each walks the buckets in order — callers must not depend on that
// order, exactly as with a Go map, and must not insert or delete inside
// it.
package probe

import "unsafe"

// Key is what a Map is keyed by: a uint64-kind integer or a 20-byte
// array (chunk.Fingerprint). Both are flat and padding-free, so key
// equality is byte equality and the hash reads the key's first word.
type Key interface {
	~uint64 | ~[20]byte
}

// word is a key's first eight bytes: the whole of an integer key, and
// the already uniform head of a fingerprint. The bucket is picked from
// it, and a chain compares it before the whole key, which settles most
// mismatches.
func word[K Key](k *K) uint64 { return *(*uint64)(unsafe.Pointer(k)) }

// mix64 is the 64-bit finalizer from MurmurHash3: bijective, cheap,
// and spreads sequential integers across the full word.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

const (
	pageBits = 10
	pageLen  = 1 << pageBits // entries per page
	minBits  = 3             // log2 of the fewest buckets
)

// entry is one key and its value. next chains the entry's bucket, or
// the free list once the entry is deleted; 0 ends either.
type entry[K Key, V any] struct {
	key  K
	next int32
	val  V
}

// Map is a chained hash map over pages of entries that never move. The
// zero value is not usable; call NewMap.
type Map[K Key, V any] struct {
	heads []int32 // each bucket's first entry, 1-based; 0: empty
	shift uint8   // 64 − log2(len(heads)): a bucket is a hash's top bits
	pages []*[pageLen]entry[K, V]
	used  int32 // entries handed out, live or free
	free  int32 // deleted entries, chained through next
	n     int

	warmed uint64 // what Warm loaded; nothing reads it
}

// NewMap returns an empty map whose buckets are sized for hint entries
// (0 is fine); entry pages are added as entries arrive.
func NewMap[K Key, V any](hint int) *Map[K, V] {
	bits := uint8(minBits)
	for 1<<bits < 2*hint { // keep load at most ½
		bits++
	}
	return &Map[K, V]{heads: make([]int32, 1<<bits), shift: 64 - bits}
}

// Len reports the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// head returns the bucket head of a key whose first word is w: the top
// bits of the word itself for a fingerprint — the first eight bytes of
// a SHA-1, or of the synthetic fingerprinter's finalized mix, are
// already uniform — or of its mix64 for an integer. The size test is
// resolved at compile time per instantiation shape.
func (m *Map[K, V]) head(w uint64) *int32 {
	var k K
	if unsafe.Sizeof(k) != 20 {
		w = mix64(w)
	}
	return &m.heads[w>>m.shift]
}

// at returns entry i (1-based), which stays where it is for the map's
// life.
func (m *Map[K, V]) at(i int32) *entry[K, V] {
	p := uint32(i - 1)
	return &m.pages[p>>pageBits][p&(pageLen-1)]
}

// find returns k's entry, or nil.
func (m *Map[K, V]) find(k *K) *entry[K, V] {
	w := word(k)
	for i := *m.head(w); i != 0; {
		e := m.at(i)
		if word(&e.key) == w && e.key == *k {
			return e
		}
		i = e.next
	}
	return nil
}

// Warm loads what finding each of keys will read first — its bucket
// head, then the entry that head names — and changes nothing. The heads
// are loaded in one round and the entries in a second, so a batch's
// cache misses overlap instead of queueing one behind another. The
// words go into warmed: a load whose value nothing uses would be
// compiled away.
func (m *Map[K, V]) Warm(keys []K) {
	var sum uint64
	for k := range keys {
		sum += uint64(*m.head(word(&keys[k])))
	}
	for k := range keys {
		if i := *m.head(word(&keys[k])); i != 0 {
			e := m.at(i)
			sum += word(&e.key) + uint64(e.next)
		}
	}
	m.warmed += sum
}

// Get returns the value for k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	if e := m.find(&k); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Find returns a pointer to the value for k for in-place mutation,
// or nil when absent. The pointer stays valid until k is deleted.
func (m *Map[K, V]) Find(k K) (*V, bool) {
	if e := m.find(&k); e != nil {
		return &e.val, true
	}
	return nil, false
}

// Put inserts or updates k.
func (m *Map[K, V]) Put(k K, v V) {
	p, _ := m.Ref(k)
	*p = v
}

// Ref returns a pointer to the value for k, inserting a zero value
// when absent (inserted reports which): a single-pass find-or-insert.
// The pointer stays valid until k is deleted.
func (m *Map[K, V]) Ref(k K) (p *V, inserted bool) {
	w := word(&k)
	b := m.head(w)
	for i := *b; i != 0; {
		e := m.at(i)
		if word(&e.key) == w && e.key == k {
			return &e.val, false
		}
		i = e.next
	}
	i := m.take()
	e := m.at(i)
	e.key, e.next, *b = k, *b, i
	m.n++
	if 2*m.n > len(m.heads) {
		m.grow()
	}
	return &e.val, true
}

// take hands out a deleted entry, or the next fresh one, adding a page
// when the last one is full. Its key and value are zero.
func (m *Map[K, V]) take() int32 {
	if i := m.free; i != 0 {
		m.free = m.at(i).next
		return i
	}
	if int(m.used) == len(m.pages)<<pageBits {
		m.pages = append(m.pages, new([pageLen]entry[K, V]))
	}
	m.used++
	return m.used
}

// grow doubles the heads and re-links every entry, bucket by bucket;
// no key or value moves.
func (m *Map[K, V]) grow() {
	old := m.heads
	m.heads, m.shift = make([]int32, 2*len(old)), m.shift-1
	for _, i := range old {
		for i != 0 {
			e := m.at(i)
			next := e.next
			b := m.head(word(&e.key))
			e.next, *b = *b, i
			i = next
		}
	}
}

// Delete removes k, reporting whether it was present.
func (m *Map[K, V]) Delete(k K) bool {
	_, ok := m.Take(k)
	return ok
}

// Take removes k and returns its value: a single-pass Get+Delete. The
// entry is zeroed and kept for the next insert.
func (m *Map[K, V]) Take(k K) (V, bool) {
	w := word(&k)
	for l := m.head(w); *l != 0; {
		i := *l
		e := m.at(i)
		if word(&e.key) == w && e.key == k {
			v := e.val
			*l = e.next
			*e = entry[K, V]{next: m.free}
			m.free = i
			m.n--
			return v, true
		}
		l = &e.next
	}
	var zero V
	return zero, false
}

// Each visits entries bucket by bucket; return false to stop. fn must
// not insert or delete.
func (m *Map[K, V]) Each(fn func(K, V) bool) {
	for _, i := range m.heads {
		for i != 0 {
			e := m.at(i)
			if !fn(e.key, e.val) {
				return
			}
			i = e.next
		}
	}
}
