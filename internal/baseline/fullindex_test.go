package baseline

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
)

func fp(id uint64) chunk.Fingerprint { return chunk.ContentID(id).Fingerprint() }

func newFull(hotCapacity int) *fullIndex { return newFullIndex(hotCapacity, engine.NewStore()) }

// put writes content id into the fresh block pba and indexes it, as
// Full-Dedupe's write path does.
func put(f *fullIndex, id uint64, pba alloc.PBA) {
	f.store.Write(pba, chunk.ContentID(id))
	f.insert(fp(id), pba)
}

// inHot reports whether the hot portion holds fp, without promoting it.
func inHot(f *fullIndex, id uint64) bool {
	_, ok := f.hot.Peek(fp(id))
	return ok
}

func TestHotInsertLookup(t *testing.T) {
	f := newFull(4)
	put(f, 1, 100)
	if pba, found, mem := f.lookup(fp(1)); !found || !mem || pba != 100 {
		t.Fatalf("lookup = %d,%v,%v", pba, found, mem)
	}
}

func TestHotMiss(t *testing.T) {
	f := newFull(4)
	if _, found, mem := f.lookup(fp(9)); found || mem {
		t.Fatal("phantom hit")
	}
}

// Re-inserting the binding the hot portion already holds leaves it where
// it is in recency order: Full-Dedupe's disk-lookup counts depend on it.
func TestHotReinsertSamePBANoop(t *testing.T) {
	f := newFull(2)
	put(f, 1, 100)
	put(f, 2, 200)
	put(f, 1, 100) // must not promote fp(1)
	put(f, 3, 300) // so fp(1) is the victim
	if inHot(f, 1) || !inHot(f, 2) || !inHot(f, 3) {
		t.Fatal("re-inserting the same binding promoted it")
	}
	put(f, 2, 500) // a remap does promote
	put(f, 4, 400)
	if !inHot(f, 2) || inHot(f, 3) {
		t.Fatal("a remapped entry must be promoted")
	}
	if pba, _, mem := f.lookup(fp(2)); !mem || pba != 500 {
		t.Fatalf("remapped entry = %d (memory %v), want 500 from memory", pba, mem)
	}
}

func TestHotRemove(t *testing.T) {
	f := newFull(2)
	put(f, 1, 100)
	f.forget(100)
	if inHot(f, 1) || f.hot.Len() != 0 {
		t.Fatal("forget left the entry in the hot portion")
	}
}

func TestHotLRUOrder(t *testing.T) {
	f := newFull(2)
	put(f, 1, 100)
	put(f, 2, 200)
	f.lookup(fp(1)) // promote 1
	put(f, 3, 300)
	if !inHot(f, 1) || inHot(f, 2) {
		t.Fatal("LRU victim should be the unpromoted entry")
	}
}

func TestFullLookupPaths(t *testing.T) {
	f := newFull(1)
	put(f, 1, 100)
	put(f, 2, 200) // hot holds only fp(2); fp(1) evicted from hot

	// memory hit
	if pba, found, mem := f.lookup(fp(2)); !found || !mem || pba != 200 {
		t.Fatalf("hot path = %d,%v,%v", pba, found, mem)
	}
	// disk lookup, found in full table
	if pba, found, mem := f.lookup(fp(1)); !found || mem || pba != 100 {
		t.Fatalf("disk path = %d,%v,%v", pba, found, mem)
	}
	// absent fingerprint: still a disk lookup (must prove absence)
	if _, found, mem := f.lookup(fp(9)); found || mem {
		t.Fatal("absent fp must be a disk-path miss")
	}
}

func TestFullLookupPromotesToHot(t *testing.T) {
	f := newFull(1)
	put(f, 1, 100)
	put(f, 2, 200)
	f.lookup(fp(1)) // disk path; promotes fp(1)
	if _, _, mem := f.lookup(fp(1)); !mem {
		t.Fatal("second lookup must be a memory hit after promotion")
	}
}

func TestFullForget(t *testing.T) {
	f := newFull(4)
	put(f, 1, 100)
	f.forget(100)
	if _, found, _ := f.lookup(fp(1)); found {
		t.Fatal("forgotten block still indexed")
	}
	if n := f.all.Len(); n != 0 {
		t.Fatalf("table holds %d entries", n)
	}
	f.forget(999) // never-written block: no-op
}

// TestFullOldBlockForgetKeepsRemap: once a fingerprint's entry names a
// newer copy, freeing the older block leaves the entry alone.
func TestFullOldBlockForgetKeepsRemap(t *testing.T) {
	f := newFull(4)
	put(f, 1, 100)
	put(f, 1, 500) // content now lives at 500
	f.forget(100)  // freeing the old block must not kill the entry
	if pba, found, _ := f.lookup(fp(1)); !found || pba != 500 {
		t.Fatalf("entry lost after old-block forget: %d,%v", pba, found)
	}
}

// Property: the hot portion never exceeds capacity and every insert is
// immediately found in memory (capacity ≥ 1).
func TestHotProperty(t *testing.T) {
	f := func(ids []uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		fu := newFull(capacity)
		for _, id := range ids {
			put(fu, uint64(id), alloc.PBA(id))
			if fu.hot.Len() > capacity {
				return false
			}
			if pba, found, mem := fu.lookup(fp(uint64(id))); !found || !mem || pba != alloc.PBA(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: full index lookups agree with a model map, regardless of
// hot-portion churn — the hot portion only decides where an answer
// comes from. A write may land on a block that held another content:
// that content's entry stays, and forgetting the block removes the new
// content's entry if it still names the block.
func TestFullProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fu := newFull(4)
		model := map[uint64]alloc.PBA{}
		content := map[alloc.PBA]uint64{}
		for _, raw := range ops {
			id := uint64(raw % 32)
			pba := alloc.PBA(raw%64) + 1
			switch raw % 3 {
			case 0, 1:
				put(fu, id, pba)
				model[id] = pba
				content[pba] = id
			case 2:
				fu.forget(pba)
				if id2, ok := content[pba]; ok && model[id2] == pba {
					delete(model, id2)
				}
			}
			for id2 := uint64(0); id2 < 32; id2++ {
				want, ok := model[id2]
				if got, found, _ := fu.lookup(fp(id2)); found != ok || got != want {
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

// revIndex is the reference forget: the full table as it was kept with
// a block → fingerprint map beside it, which insert maintains and
// forget reads instead of the block's content.
type revIndex struct {
	all map[chunk.Fingerprint]alloc.PBA
	rev map[alloc.PBA]chunk.Fingerprint
}

func (r *revIndex) insert(fp chunk.Fingerprint, pba alloc.PBA) {
	if old, ok := r.all[fp]; ok {
		delete(r.rev, old)
	}
	r.all[fp] = pba
	r.rev[pba] = fp
}

func (r *revIndex) forget(pba alloc.PBA) {
	if fp, ok := r.rev[pba]; ok {
		delete(r.rev, pba)
		delete(r.all, fp)
	}
}

// revTwin is Full-Dedupe with the reference fed the same inserts.
type revTwin struct {
	fullDedupe
	ref *revIndex
}

func (p revTwin) Placed(b *engine.Base, w *engine.WriteOp) {
	p.fullDedupe.Placed(b, w)
	for k, pos := range w.Placed {
		p.ref.insert(w.Chunks[pos].FP, w.PBAs[k])
	}
}

// sameEntries reports the first difference between the full index's
// table and the reference's, or nil.
func sameEntries(f *fullIndex, r *revIndex) error {
	if f.all.Len() != len(r.all) {
		return fmt.Errorf("%d entries, the reference %d", f.all.Len(), len(r.all))
	}
	var err error
	f.all.Each(func(fp chunk.Fingerprint, pba alloc.PBA) bool {
		if want, ok := r.all[fp]; !ok || want != pba {
			err = fmt.Errorf("fingerprint %x names block %d, the reference %d (%v)", fp[:4], pba, want, ok)
		}
		return err == nil
	})
	return err
}

// TestFullForgetMatchesReverseMap: Full-Dedupe's forget, which
// re-derives a freed block's fingerprint from its residual content,
// leaves the table entry for entry where the reverse-map forget it
// replaced does, over a seeded trace of overwrites — duplicates within
// a request included, so one fingerprint's entry moves past a block
// that stays live — with a crash and recovery midway.
func TestFullForgetMatchesReverseMap(t *testing.T) {
	c := cfg()
	c.NVRAMBytes = 1 << 20
	b := engine.NewBase(c)
	f := fullDedupe{full: newFullIndex(b.IC.IndexCapTotal(), b.Store)}
	ref := &revIndex{all: map[chunk.Fingerprint]alloc.PBA{}, rev: map[alloc.PBA]chunk.Fingerprint{}}
	b.OnFree = func(pba alloc.PBA) {
		f.full.forget(pba)
		ref.forget(pba)
	}
	p := engine.New("Full-Dedupe", b, revTwin{f, ref})

	r := rand.New(rand.NewSource(7))
	const requests = 3000
	tm := sim.Time(0)
	for i := 0; i < requests; i++ {
		if i == requests/2 {
			if _, err := p.CrashAndRecover(); err != nil {
				t.Fatal(err)
			}
		}
		ids := make([]chunk.ContentID, 1+r.Intn(6))
		for k := range ids {
			ids[k] = chunk.ContentID(1 + r.Intn(40))
		}
		tm = tm.Add(sim.Duration(1 + r.Intn(2000)))
		if _, err := p.Write(at(wr(uint64(r.Intn(96)), ids...), tm)); err != nil {
			t.Fatal(err)
		}
		if err := sameEntries(f.full, ref); err != nil {
			t.Fatalf("after request %d: %v", i, err)
		}
	}
	if p.Stats().ChunksDeduped == 0 || b.Alloc.Used() == 0 {
		t.Fatal("the trace deduplicated nothing")
	}
}
