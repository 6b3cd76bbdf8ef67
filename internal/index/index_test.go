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

func TestHotInsertLookup(t *testing.T) {
	h := NewHot(4)
	if _, evicted := h.Insert(fp(1), 100); evicted {
		t.Fatal("insert into empty index evicted")
	}
	e, ok := h.Lookup(fp(1))
	if !ok || e.PBA != 100 {
		t.Fatalf("lookup = %+v,%v", e, ok)
	}
	if e.Count != 1 {
		t.Fatalf("count after first hit = %d, want 1", e.Count)
	}
	e, _ = h.Lookup(fp(1))
	if e.Count != 2 {
		t.Fatalf("count after second hit = %d, want 2", e.Count)
	}
}

func TestHotMiss(t *testing.T) {
	h := NewHot(4)
	if _, ok := h.Lookup(fp(9)); ok {
		t.Fatal("phantom hit")
	}
}

func TestHotEvictionSurfacesPin(t *testing.T) {
	h := NewHot(2)
	h.Insert(fp(1), 100)
	h.Insert(fp(2), 200)
	ev, evicted := h.Insert(fp(3), 300)
	if !evicted || ev.FP != fp(1) || ev.Entry.PBA != 100 {
		t.Fatalf("evicted = %+v,%v, want fp(1)/100", ev, evicted)
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestHotReinsertSamePBANoop(t *testing.T) {
	h := NewHot(2)
	h.Insert(fp(1), 100)
	h.Lookup(fp(1)) // count = 1
	if _, evicted := h.Insert(fp(1), 100); evicted {
		t.Fatal("idempotent insert must not evict")
	}
	e, _ := h.Peek(fp(1))
	if e.Count != 1 {
		t.Fatal("idempotent insert must preserve Count")
	}
}

func TestHotRemapSurfacesOldPin(t *testing.T) {
	h := NewHot(2)
	h.Insert(fp(1), 100)
	ev, evicted := h.Insert(fp(1), 500)
	if !evicted || ev.Entry.PBA != 100 {
		t.Fatalf("remap must surface old entry, got %+v,%v", ev, evicted)
	}
	e, _ := h.Peek(fp(1))
	if e.PBA != 500 || e.Count != 0 {
		t.Fatalf("remapped entry = %+v", e)
	}
}

func TestHotRemove(t *testing.T) {
	h := NewHot(2)
	h.Insert(fp(1), 100)
	e, ok := h.Remove(fp(1))
	if !ok || e.PBA != 100 {
		t.Fatal("remove failed")
	}
	if _, ok := h.Remove(fp(1)); ok {
		t.Fatal("double remove")
	}
}

func TestHotLRUOrder(t *testing.T) {
	h := NewHot(2)
	h.Insert(fp(1), 100)
	h.Insert(fp(2), 200)
	h.Lookup(fp(1)) // promote 1
	ev, _ := h.Insert(fp(3), 300)
	if ev.FP != fp(2) {
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
	if f.MemHits() != 1 || f.DiskLookups() != 2 {
		t.Fatalf("mem/disk = %d/%d, want 1/2", f.MemHits(), f.DiskLookups())
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
	if f.Len() != 0 {
		t.Fatalf("len = %d", f.Len())
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

// Property: the hot index never exceeds capacity and every insert is
// immediately findable (capacity ≥ 1).
func TestHotProperty(t *testing.T) {
	f := func(ids []uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		h := NewHot(capacity)
		for _, id := range ids {
			h.Insert(fp(uint64(id)), alloc.PBA(id))
			if h.Len() > capacity {
				return false
			}
			if e, ok := h.Peek(fp(uint64(id))); !ok || e.PBA != alloc.PBA(id) {
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
// hot-portion churn.
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
				// mirror Full.Insert's rev-map semantics: the new pba may
				// have belonged to another fingerprint
				if oldID, ok := revModel[pba]; ok && oldID != id {
					// Full keeps all[oldID] but rev now points to id; Forget(pba)
					// would remove id's entry. Model only the forward map here.
					_ = oldID
				}
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
			for id2, want := range model {
				got, found, _ := fu.Lookup(fp(id2))
				if !found || got != want {
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

func BenchmarkHotLookupHit(b *testing.B) {
	h := NewHot(1024)
	for i := uint64(0); i < 1024; i++ {
		h.Insert(fp(i), alloc.PBA(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(fp(uint64(i) % 1024))
	}
}
