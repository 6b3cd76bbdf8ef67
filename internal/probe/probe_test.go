package probe

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// TestMatchesGoMap cross-checks every operation against a Go map under
// a randomized workload, for both kinds of key: an integer and a
// fingerprint-shaped array.
func TestMatchesGoMap(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { crossCheck(t, func(r *rand.Rand) uint64 { return uint64(r.Intn(512)) }) })
	t.Run("fp20", func(t *testing.T) {
		crossCheck(t, func(r *rand.Rand) [20]byte {
			var k [20]byte
			k[0] = byte(r.Intn(64))
			k[19] = byte(r.Intn(8))
			return k
		})
	})
}

func crossCheck[K Key](t *testing.T, genKey func(*rand.Rand) K) {
	r := rand.New(rand.NewSource(7))
	m := NewMap[K, int](0)
	ref := map[K]int{}
	for op := 0; op < 20000; op++ {
		k := genKey(r)
		switch r.Intn(5) {
		case 0:
			v := r.Intn(1 << 20)
			m.Put(k, v)
			ref[k] = v
		case 1:
			_, wantOK := ref[k]
			if got := m.Delete(k); got != wantOK {
				t.Fatalf("op %d: Delete=%v want %v", op, got, wantOK)
			}
			delete(ref, k)
		case 2:
			got, ok := m.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("op %d: Get=(%v,%v) want (%v,%v)", op, got, ok, want, wantOK)
			}
		case 3:
			p, inserted := m.Ref(k)
			want, had := ref[k]
			if inserted == had || *p != want {
				t.Fatalf("op %d: Ref=(%v,%v) want (%v,%v)", op, *p, inserted, want, !had)
			}
			*p++
			ref[k] = want + 1
		case 4:
			got, ok := m.Take(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("op %d: Take=(%v,%v) want (%v,%v)", op, got, ok, want, wantOK)
			}
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d want %d", op, m.Len(), len(ref))
		}
	}
	seen := map[K]int{}
	m.Each(func(k K, v int) bool { seen[k] = v; return true })
	if len(seen) != len(ref) {
		t.Fatalf("Each visited %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Each missed or corrupted key %v", k)
		}
	}
}

// TestDeterministicLayout: the same operation sequence must yield the
// same table layout (checked via Each order), run to run.
func TestDeterministicLayout(t *testing.T) {
	build := func() []uint64 {
		m := NewMap[uint64, int](0)
		for i := uint64(0); i < 1000; i++ {
			m.Put(i*3, int(i))
		}
		for i := uint64(0); i < 500; i++ {
			m.Delete(i * 6)
		}
		var order []uint64
		m.Each(func(k uint64, _ int) bool { order = append(order, k); return true })
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layout diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// fp20 is a fingerprint-shaped key whose twenty bytes are spread from
// x, as a SHA-1's or the synthetic fingerprinter's are.
func fp20(x uint64) [20]byte {
	var k [20]byte
	binary.LittleEndian.PutUint64(k[0:], mix64(x))
	binary.LittleEndian.PutUint64(k[8:], mix64(x^0x9e3779b97f4a7c15))
	binary.LittleEndian.PutUint32(k[16:], uint32(mix64(x+1)))
	return k
}

// TestEntriesNeverMove: a pointer from Find or Ref names the same value
// across ten times the map's size in later inserts — four doublings of
// the buckets and new pages — and writes through it are what Get reads.
func TestEntriesNeverMove(t *testing.T) {
	const n = 2000
	m := NewMap[[20]byte, uint64](0)
	ptrs := make([]*uint64, n)
	for i := range ptrs {
		p, inserted := m.Ref(fp20(uint64(i)))
		if !inserted {
			t.Fatalf("key %d already present", i)
		}
		*p = uint64(i)
		ptrs[i] = p
	}
	found, _ := m.Find(fp20(7))
	for i := n; i < 11*n; i++ {
		m.Put(fp20(uint64(i)), uint64(i))
	}
	if found != ptrs[7] {
		t.Fatal("Find and Ref disagree on where key 7 lives")
	}
	for i, p := range ptrs {
		if *p != uint64(i) {
			t.Fatalf("key %d: pointer reads %d after growth", i, *p)
		}
		*p += 1 << 32
		if v, ok := m.Get(fp20(uint64(i))); !ok || v != uint64(i)+1<<32 {
			t.Fatalf("key %d: Get=(%d,%v) after a write through its pointer", i, v, ok)
		}
	}
}

// TestDeleteReusesEntries: entries deleted are the ones the next
// inserts take, so a map emptied and refilled to the same size holds
// the same pages.
func TestDeleteReusesEntries(t *testing.T) {
	const n = 5000
	m := NewMap[uint64, int](0)
	for i := 0; i < n; i++ {
		m.Put(uint64(i), i)
	}
	pages := len(m.pages)
	for i := 0; i < n; i++ {
		if !m.Delete(uint64(i)) {
			t.Fatalf("key %d missing", i)
		}
	}
	for i := 0; i < n; i++ {
		m.Put(uint64(n+i), i)
	}
	if len(m.pages) != pages || m.Len() != n {
		t.Fatalf("refill holds %d pages (%d entries), the first fill %d", len(m.pages), m.Len(), pages)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(uint64(n + i)); !ok || v != i {
			t.Fatalf("key %d: Get=(%d,%v)", n+i, v, ok)
		}
	}
}

// TestWarmChangesNothing warms present, deleted and absent keys, in
// both key shapes, and compares every bucket head, every entry (the
// free chain's included) and every counter before and after.
func TestWarmChangesNothing(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		warmUnchanged(t, func(i int) uint64 { return uint64(i) })
	})
	t.Run("fp20", func(t *testing.T) { warmUnchanged(t, func(i int) [20]byte { return fp20(uint64(i)) }) })
}

func warmUnchanged[K Key](t *testing.T, key func(int) K) {
	m := NewMap[K, int](0)
	for i := 0; i < 3000; i++ {
		m.Put(key(i), i)
	}
	for i := 0; i < 3000; i += 3 {
		m.Delete(key(i))
	}
	keys := make([]K, 6000) // present, deleted, never inserted
	for i := range keys {
		keys[i] = key(i)
	}
	snap := func() (heads []int32, entries []entry[K, int], counts [3]int) {
		heads = append(heads, m.heads...)
		for _, p := range m.pages {
			entries = append(entries, p[:]...)
		}
		return heads, entries, [3]int{int(m.used), int(m.free), m.n}
	}
	h0, e0, c0 := snap()
	m.Warm(keys)
	m.Warm(keys[:1])
	m.Warm(nil)
	h1, e1, c1 := snap()
	if !reflect.DeepEqual(h0, h1) || !reflect.DeepEqual(e0, e1) || c0 != c1 {
		t.Fatal("Warm changed the map")
	}
	if m.warmed == 0 {
		t.Fatal("Warm loaded nothing")
	}
}

// FuzzMapOps drives a map with a stream of operations, each three bytes
// (op, key, value), against a Go map. The mode picks the keys: uniform
// fingerprints, or fingerprints that all share their first word, so
// every key sits in one chain and every unlink happens mid-chain.
func FuzzMapOps(f *testing.F) {
	for mode := uint8(0); mode < 2; mode++ {
		data := make([]byte, 3*600)
		rand.New(rand.NewSource(int64(mode))).Read(data)
		f.Add(mode, data)
	}
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		key := func(b byte) [20]byte { return fp20(uint64(b)) }
		if mode%2 == 1 {
			key = func(b byte) [20]byte {
				k := fp20(uint64(b))
				binary.LittleEndian.PutUint64(k[:8], 0x5eed)
				return k
			}
		}
		m := NewMap[[20]byte, uint32](0)
		ref := map[[20]byte]uint32{}
		for len(data) >= 3 {
			op, k, v := data[0], key(data[1]), uint32(data[2])
			data = data[3:]
			want, had := ref[k]
			switch op % 5 {
			case 0:
				m.Put(k, v)
				ref[k] = v
			case 1:
				if got := m.Delete(k); got != had {
					t.Fatalf("Delete=%v, want %v", got, had)
				}
				delete(ref, k)
			case 2:
				if got, ok := m.Get(k); ok != had || got != want {
					t.Fatalf("Get=(%d,%v), want (%d,%v)", got, ok, want, had)
				}
			case 3:
				p, inserted := m.Ref(k)
				if inserted == had || *p != want {
					t.Fatalf("Ref=(%d,%v), want (%d,%v)", *p, inserted, want, !had)
				}
				*p += v
				ref[k] = want + v
			case 4:
				if got, ok := m.Take(k); ok != had || got != want {
					t.Fatalf("Take=(%d,%v), want (%d,%v)", got, ok, want, had)
				}
				delete(ref, k)
			}
			if m.Len() != len(ref) {
				t.Fatalf("Len=%d, want %d", m.Len(), len(ref))
			}
		}
		seen := 0
		m.Each(func(k [20]byte, v uint32) bool {
			if want, ok := ref[k]; !ok || want != v {
				t.Fatalf("Each: key %x holds %d, want (%d,%v)", k[:4], v, want, ok)
			}
			seen++
			return true
		})
		if seen != len(ref) {
			t.Fatalf("Each visited %d entries, want %d", seen, len(ref))
		}
	})
}

// benchMap returns a map of n uniform fingerprints, keyed 0..n-1.
func benchMap(n int) *Map[[20]byte, uint64] {
	m := NewMap[[20]byte, uint64](0)
	for i := 0; i < n; i++ {
		m.Put(fp20(uint64(i)), uint64(i))
	}
	return m
}

const benchEntries = 1 << 20

// BenchmarkMapFill fills an empty map to a million fingerprints, as a
// fresh engine's exact tables fill: B/op is what growing costs.
func BenchmarkMapFill(b *testing.B) {
	fps := make([][20]byte, benchEntries)
	for i := range fps {
		fps[i] = fp20(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMap[[20]byte, uint64](0)
		for j, fp := range fps {
			m.Put(fp, uint64(j))
		}
	}
}

// BenchmarkMapGetHit and BenchmarkMapGetMiss look up a million-entry
// map (32 MiB of entries and 16 MiB of heads, past L2) in a scattered
// order. They fail unless they run at 0 allocs/op.
func BenchmarkMapGetHit(b *testing.B) {
	benchGet(b, 0)
}

func BenchmarkMapGetMiss(b *testing.B) {
	benchGet(b, benchEntries)
}

func benchGet(b *testing.B, from int) {
	m := benchMap(benchEntries)
	fps := make([][20]byte, 1<<16)
	r := rand.New(rand.NewSource(1))
	for i := range fps {
		fps[i] = fp20(uint64(from + r.Intn(benchEntries)))
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(fps[i&(len(fps)-1)])
		sink += v
	}
	b.StopTimer()
	if avg := testing.AllocsPerRun(100, func() { sink, _ = m.Get(fps[0]) }); avg != 0 {
		b.Fatalf("get: %.2f allocs/op, want 0", avg)
	}
	_ = sink
}
