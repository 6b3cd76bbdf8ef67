// Package probe provides a deterministic open-addressing hash map for
// the simulator's keyed lookup structures: the LRU caches' slot index,
// the exact fingerprint table and its block reverse-index, the global
// tier's fingerprint tables. The iCache's directory is not among them:
// its keys already sit in slots that never move, so it chains key-less
// buckets through those slots instead of storing every key a second
// time here.
//
// The runtime's map is general: it re-hashes every key with AES-based
// hashing, probes SIMD control groups, and grows by incremental
// rehash. The simulator's keys are of two kinds, and Key admits no
// other: 64-bit integers (LBA, PBA, ContentID, a stream's block key)
// or fingerprints whose bytes are already uniformly distributed (SHA-1,
// or the synthetic fingerprinter's murmur-style finalizer). Hashing
// collapses to one finalizer over the integer — or to reading the
// fingerprint's first eight bytes — and a plain linear probe over a
// flat array beats the general machinery while staying fully
// deterministic: layout depends only on the sequence of operations,
// never on a per-process seed. Iteration order (Each) is table order —
// callers must not depend on it, exactly as with a Go map.
package probe

import "unsafe"

// Key is what a Map is keyed by: a uint64-kind integer or a 20-byte
// array (chunk.Fingerprint). Both are flat and padding-free, so key
// equality is byte equality and the hash reads the key's first word.
type Key interface {
	~uint64 | ~[20]byte
}

// hashKey hashes a key. The size test is resolved at compile time per
// instantiation shape, so each map gets straight-line hashing code with
// no call overhead on the probe loop.
func (m *Map[K, V]) hashKey(k K) uint64 {
	w := *(*uint64)(unsafe.Pointer(&k))
	if unsafe.Sizeof(k) == 20 {
		// chunk.Fingerprint: the first eight bytes of a SHA-1 (or the
		// synthetic fingerprinter's finalized mix) are already uniform.
		return w
	}
	return mix64(w)
}

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

// Map is an open-addressing hash map with linear probing and
// backward-shift deletion (no tombstones). The zero value is not
// usable; call NewMap.
type Map[K Key, V any] struct {
	keys []K
	vals []V
	used []bool
	mask uint64
	n    int
}

// NewMap returns an empty map presized for hint entries (0 is fine).
func NewMap[K Key, V any](hint int) *Map[K, V] {
	m := &Map[K, V]{}
	m.init(hint)
	return m
}

func (m *Map[K, V]) init(hint int) {
	size := 8
	for size*3 < hint*4 { // keep load under 3/4
		size <<= 1
	}
	m.keys = make([]K, size)
	m.vals = make([]V, size)
	m.used = make([]bool, size)
	m.mask = uint64(size - 1)
	m.n = 0
}

// Len reports the number of entries.
func (m *Map[K, V]) Len() int { return m.n }

// Get returns the value for k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	i := m.hashKey(k) & m.mask
	for m.used[i] {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	var zero V
	return zero, false
}

// Put inserts or updates k.
func (m *Map[K, V]) Put(k K, v V) {
	i := m.hashKey(k) & m.mask
	for m.used[i] {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i], m.used[i] = k, v, true
	m.n++
	if uint64(m.n)*4 > (m.mask+1)*3 {
		m.grow()
	}
}

func (m *Map[K, V]) grow() {
	keys, vals, used := m.keys, m.vals, m.used
	m.init(m.n * 2)
	for i := range used {
		if !used[i] {
			continue
		}
		j := m.hashKey(keys[i]) & m.mask
		for m.used[j] {
			j = (j + 1) & m.mask
		}
		m.keys[j], m.vals[j], m.used[j] = keys[i], vals[i], true
		m.n++
	}
}

// Delete removes k, reporting whether it was present.
func (m *Map[K, V]) Delete(k K) bool {
	i := m.hashKey(k) & m.mask
	for {
		if !m.used[i] {
			return false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & m.mask
	}
	m.unset(i)
	return true
}

// unset clears occupied slot i and restores the probe invariant by
// backward-shifting: walk the chain after i, moving back every entry
// whose ideal slot precedes the hole, so lookups never need
// tombstones.
func (m *Map[K, V]) unset(i uint64) {
	var zeroK K
	var zeroV V
	j := i
	for {
		j = (j + 1) & m.mask
		if !m.used[j] {
			break
		}
		ideal := m.hashKey(m.keys[j]) & m.mask
		if (j-ideal)&m.mask >= (j-i)&m.mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	m.keys[i], m.vals[i] = zeroK, zeroV
	m.used[i] = false
	m.n--
}

// Find returns a pointer to the value for k for in-place mutation,
// or nil when absent. The pointer is invalidated by the next mutating
// call on the map.
func (m *Map[K, V]) Find(k K) (*V, bool) {
	i := m.hashKey(k) & m.mask
	for m.used[i] {
		if m.keys[i] == k {
			return &m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return nil, false
}

// Ref returns a pointer to the value for k, inserting a zero value
// when absent (inserted reports which): a single-pass find-or-insert.
// The pointer is invalidated by the next mutating call on the map.
func (m *Map[K, V]) Ref(k K) (p *V, inserted bool) {
	i := m.hashKey(k) & m.mask
	for m.used[i] {
		if m.keys[i] == k {
			return &m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.used[i] = k, true
	m.n++
	if uint64(m.n)*4 > (m.mask+1)*3 {
		m.grow()
		// the zero value moved; find its new slot
		i = m.hashKey(k) & m.mask
		for m.keys[i] != k || !m.used[i] {
			i = (i + 1) & m.mask
		}
	}
	return &m.vals[i], true
}

// Take removes k and returns its value: a single-pass Get+Delete.
func (m *Map[K, V]) Take(k K) (V, bool) {
	i := m.hashKey(k) & m.mask
	for {
		if !m.used[i] {
			var zero V
			return zero, false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & m.mask
	}
	v := m.vals[i]
	m.unset(i)
	return v, true
}

// Each visits entries in unspecified order; return false to stop.
func (m *Map[K, V]) Each(fn func(K, V) bool) {
	for i := range m.used {
		if m.used[i] && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

// Bytes reports the memory held by the table's arrays.
func (m *Map[K, V]) Bytes() int {
	var k K
	var v V
	return len(m.used) * int(unsafe.Sizeof(k)+unsafe.Sizeof(v)+1)
}
