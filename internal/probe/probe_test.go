package probe

import (
	"math/rand"
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
