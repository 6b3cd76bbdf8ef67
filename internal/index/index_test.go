package index

import (
	"testing"
	"testing/quick"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

func fp(id uint64) chunk.Fingerprint {
	c := chunk.Chunk{Content: chunk.ContentID(id)}
	return chunk.SyntheticFingerprinter{}.Fingerprint(&c)
}

// inHot reports whether the hot portion holds fp, without promoting it.
func inHot(f *Full, id uint64) bool {
	_, ok := f.hot.Peek(fp(id))
	return ok
}

func TestHotInsertLookup(t *testing.T) {
	f := NewFull(4)
	f.Insert(fp(1), 100)
	if pba, found, mem := f.Lookup(fp(1)); !found || !mem || pba != 100 {
		t.Fatalf("lookup = %d,%v,%v", pba, found, mem)
	}
}

func TestHotMiss(t *testing.T) {
	f := NewFull(4)
	if _, found, mem := f.Lookup(fp(9)); found || mem {
		t.Fatal("phantom hit")
	}
}

// Re-inserting the binding the hot portion already holds leaves it where
// it is in recency order: Full-Dedupe's disk-lookup counts depend on it.
func TestHotReinsertSamePBANoop(t *testing.T) {
	f := NewFull(2)
	f.Insert(fp(1), 100)
	f.Insert(fp(2), 200)
	f.Insert(fp(1), 100) // must not promote fp(1)
	f.Insert(fp(3), 300) // so fp(1) is the victim
	if inHot(f, 1) || !inHot(f, 2) || !inHot(f, 3) {
		t.Fatal("re-inserting the same binding promoted it")
	}
	f.Insert(fp(2), 500) // a remap does promote
	f.Insert(fp(4), 400)
	if !inHot(f, 2) || inHot(f, 3) {
		t.Fatal("a remapped entry must be promoted")
	}
	if pba, _, mem := f.Lookup(fp(2)); !mem || pba != 500 {
		t.Fatalf("remapped entry = %d (memory %v), want 500 from memory", pba, mem)
	}
}

func TestHotRemove(t *testing.T) {
	f := NewFull(2)
	f.Insert(fp(1), 100)
	f.Forget(100)
	if inHot(f, 1) || f.hot.Len() != 0 {
		t.Fatal("forget left the entry in the hot portion")
	}
}

func TestHotLRUOrder(t *testing.T) {
	f := NewFull(2)
	f.Insert(fp(1), 100)
	f.Insert(fp(2), 200)
	f.Lookup(fp(1)) // promote 1
	f.Insert(fp(3), 300)
	if !inHot(f, 1) || inHot(f, 2) {
		t.Fatal("LRU victim should be the unpromoted entry")
	}
}

func TestFullLookupPaths(t *testing.T) {
	f := NewFull(1)
	f.Insert(fp(1), 100)
	f.Insert(fp(2), 200) // hot holds only fp(2); fp(1) evicted from hot

	// memory hit
	if pba, found, mem := f.Lookup(fp(2)); !found || !mem || pba != 200 {
		t.Fatalf("hot path = %d,%v,%v", pba, found, mem)
	}
	// disk lookup, found in full table
	if pba, found, mem := f.Lookup(fp(1)); !found || mem || pba != 100 {
		t.Fatalf("disk path = %d,%v,%v", pba, found, mem)
	}
	// absent fingerprint: still a disk lookup (must prove absence)
	if _, found, mem := f.Lookup(fp(9)); found || mem {
		t.Fatal("absent fp must be a disk-path miss")
	}
}

func TestFullLookupPromotesToHot(t *testing.T) {
	f := NewFull(1)
	f.Insert(fp(1), 100)
	f.Insert(fp(2), 200)
	f.Lookup(fp(1)) // disk path; promotes fp(1)
	if _, _, mem := f.Lookup(fp(1)); !mem {
		t.Fatal("second lookup must be a memory hit after promotion")
	}
}

func TestFullForget(t *testing.T) {
	f := NewFull(4)
	f.Insert(fp(1), 100)
	f.Forget(100)
	if _, found, _ := f.Lookup(fp(1)); found {
		t.Fatal("forgotten block still indexed")
	}
	if n := f.all.Len() + f.rev.Len(); n != 0 {
		t.Fatalf("table holds %d entries", n)
	}
	f.Forget(999) // unknown PBA: no-op
}

func TestFullInsertRemapCleansReverse(t *testing.T) {
	f := NewFull(4)
	f.Insert(fp(1), 100)
	f.Insert(fp(1), 500) // content now lives at 500
	f.Forget(100)        // freeing the old block must not kill the entry
	if pba, found, _ := f.Lookup(fp(1)); !found || pba != 500 {
		t.Fatalf("entry lost after old-block forget: %d,%v", pba, found)
	}
}

// Property: the hot portion never exceeds capacity and every insert is
// immediately found in memory (capacity ≥ 1).
func TestHotProperty(t *testing.T) {
	f := func(ids []uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		fu := NewFull(capacity)
		for _, id := range ids {
			fu.Insert(fp(uint64(id)), alloc.PBA(id))
			if fu.hot.Len() > capacity {
				return false
			}
			if pba, found, mem := fu.Lookup(fp(uint64(id))); !found || !mem || pba != alloc.PBA(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Full index lookups agree with a model map, regardless of
// hot-portion churn — the hot portion only decides where an answer
// comes from.
func TestFullProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fu := NewFull(4)
		model := map[uint64]alloc.PBA{}
		revModel := map[alloc.PBA]uint64{}
		for _, raw := range ops {
			id := uint64(raw % 32)
			pba := alloc.PBA(raw%64) + 1
			switch raw % 3 {
			case 0, 1:
				if old, ok := model[id]; ok {
					delete(revModel, old)
				}
				// the new pba may have belonged to another fingerprint:
				// Full keeps that fingerprint's entry, and Forget(pba)
				// then removes id's. Model only the forward map here.
				fu.Insert(fp(id), pba)
				model[id] = pba
				revModel[pba] = id
			case 2:
				fu.Forget(pba)
				if id2, ok := revModel[pba]; ok {
					delete(model, id2)
					delete(revModel, pba)
				}
			}
			for id2 := uint64(0); id2 < 32; id2++ {
				want, ok := model[id2]
				if got, found, _ := fu.Lookup(fp(id2)); found != ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFullLookupHit(b *testing.B) {
	f := NewFull(1024)
	for i := uint64(0); i < 1024; i++ {
		f.Insert(fp(i), alloc.PBA(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(fp(uint64(i) % 1024))
	}
}
