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

// Full-Dedupe's index is two substrates of engine.Base: the full table
// (Base.Exact) and its hot subset (the iCache's index partition). These
// tests drive the policy's Lookup and Placed directly against a
// substrate whose hot subset holds hotCapacity entries.

func fp(id uint64) chunk.Fingerprint { return chunk.ContentID(id).Fingerprint() }

// newFull returns a substrate whose hot index holds hotCapacity entries.
func newFull(hotCapacity int) *engine.Base {
	c := cfg()
	c.MemoryBytes = int64(2 * 64 * hotCapacity) // half the budget, 64 B an entry
	b := engine.NewBase(c)
	if b.IC.IndexCapTotal() != hotCapacity {
		panic(fmt.Sprintf("hot index holds %d entries, want %d", b.IC.IndexCapTotal(), hotCapacity))
	}
	return b
}

// put writes content id into the fresh block pba and indexes it, as
// Full-Dedupe's write path does.
func put(b *engine.Base, id uint64, pba alloc.PBA) {
	b.Alloc.Reserve(pba, 1) // false when already held
	b.Store.Write(pba, chunk.ContentID(id))
	fullDedupe{}.Placed(b, &engine.WriteOp{Chunks: []chunk.Chunk{{Content: chunk.ContentID(id), FP: fp(id)}},
		Placed: []int{0}, PBAs: []alloc.PBA{pba}})
}

// lookup runs Full-Dedupe's lookup of content id. memHit reports that
// the answer came from memory: found, and no index-zone read charged.
func lookup(b *engine.Base, id uint64) (pba alloc.PBA, found, memHit bool) {
	w := &engine.WriteOp{Chunks: []chunk.Chunk{{FP: fp(id)}}, Dup: make([]bool, 1), Target: make([]alloc.PBA, 1)}
	pre := b.St.IndexDiskIOs
	if _, err := (fullDedupe{}).Lookup(b, w, 0); err != nil {
		panic(err)
	}
	return w.Target[0], w.Dup[0], w.Dup[0] && b.St.IndexDiskIOs == pre
}

// forget frees block pba, as an overwrite or a merge does.
func forget(b *engine.Base, pba alloc.PBA) {
	b.Alloc.Reserve(pba, 1)
	b.FreeBlocks([]alloc.PBA{pba})
}

// inHot reports whether the hot index holds fp, without promoting it.
// Full-Dedupe's partition is fixed and keeps no ghost, so every index
// entry CheckIndex visits is a cached one.
func inHot(b *engine.Base, id uint64) bool {
	found := false
	b.IC.CheckIndex(func(f chunk.Fingerprint, _ alloc.PBA) error {
		found = found || f == fp(id)
		return nil
	})
	return found
}

func TestHotInsertLookup(t *testing.T) {
	b := newFull(4)
	put(b, 1, 100)
	if pba, found, mem := lookup(b, 1); !found || !mem || pba != 100 {
		t.Fatalf("lookup = %d,%v,%v", pba, found, mem)
	}
}

func TestHotMiss(t *testing.T) {
	b := newFull(4)
	if _, found, mem := lookup(b, 9); found || mem {
		t.Fatal("phantom hit")
	}
}

// Re-inserting the binding the hot index already holds leaves it where
// it is in recency order: Full-Dedupe's disk-lookup counts depend on it.
func TestHotReinsertSamePBANoop(t *testing.T) {
	b := newFull(2)
	put(b, 1, 100)
	put(b, 2, 200)
	put(b, 1, 100) // must not promote fp(1)
	put(b, 3, 300) // so fp(1) is the victim
	if inHot(b, 1) || !inHot(b, 2) || !inHot(b, 3) {
		t.Fatal("re-inserting the same binding promoted it")
	}
	put(b, 2, 500) // a remap does promote
	put(b, 4, 400)
	if !inHot(b, 2) || inHot(b, 3) {
		t.Fatal("a remapped entry must be promoted")
	}
	if pba, _, mem := lookup(b, 2); !mem || pba != 500 {
		t.Fatalf("remapped entry = %d (memory %v), want 500 from memory", pba, mem)
	}
}

// Freeing a block drops its hot entry too (FreeBlocks purges the
// iCache by block).
func TestHotRemove(t *testing.T) {
	b := newFull(2)
	put(b, 1, 100)
	forget(b, 100)
	if inHot(b, 1) {
		t.Fatal("forget left the entry in the hot index")
	}
}

func TestHotLRUOrder(t *testing.T) {
	b := newFull(2)
	put(b, 1, 100)
	put(b, 2, 200)
	lookup(b, 1) // promote 1
	put(b, 3, 300)
	if !inHot(b, 1) || inHot(b, 2) {
		t.Fatal("LRU victim should be the unpromoted entry")
	}
}

func TestFullLookupPaths(t *testing.T) {
	b := newFull(1)
	put(b, 1, 100)
	put(b, 2, 200) // hot holds only fp(2); fp(1) evicted from hot

	// memory hit
	if pba, found, mem := lookup(b, 2); !found || !mem || pba != 200 {
		t.Fatalf("hot path = %d,%v,%v", pba, found, mem)
	}
	// disk lookup, found in full table
	if pba, found, mem := lookup(b, 1); !found || mem || pba != 100 {
		t.Fatalf("disk path = %d,%v,%v", pba, found, mem)
	}
	// absent fingerprint: answered by the table, never from memory
	if _, found, mem := lookup(b, 9); found || mem {
		t.Fatal("absent fp must be a disk-path miss")
	}
}

// A hit in the full table is promoted into the hot index.
func TestFullLookupPromotesToHot(t *testing.T) {
	b := newFull(1)
	put(b, 1, 100)
	put(b, 2, 200)
	lookup(b, 1) // disk path; promotes fp(1)
	if _, _, mem := lookup(b, 1); !mem {
		t.Fatal("second lookup must be a memory hit after promotion")
	}
}

func TestFullForget(t *testing.T) {
	b := newFull(4)
	put(b, 1, 100)
	forget(b, 100)
	if _, found, _ := lookup(b, 1); found {
		t.Fatal("forgotten block still indexed")
	}
	if n := b.Exact.Len(); n != 0 {
		t.Fatalf("table holds %d entries", n)
	}
	forget(b, 999) // never-written block: no-op
}

// TestFullOldBlockForgetKeepsRemap: once a fingerprint's entry names a
// newer copy, freeing the older block leaves the entry alone.
func TestFullOldBlockForgetKeepsRemap(t *testing.T) {
	b := newFull(4)
	put(b, 1, 100)
	put(b, 1, 500) // content now lives at 500
	forget(b, 100) // freeing the old block must not kill the entry
	if pba, found := b.Exact.Get(fp(1)); !found || pba != 500 {
		t.Fatalf("entry lost after old-block forget: %d,%v", pba, found)
	}
}

// Property: the hot index never exceeds capacity and every insert is
// immediately found in memory (capacity ≥ 1).
func TestHotProperty(t *testing.T) {
	f := func(ids []uint16, capRaw uint8) bool {
		b := newFull(int(capRaw%32) + 1)
		for _, id := range ids {
			put(b, uint64(id), alloc.PBA(id))
			if b.IC.CheckInvariants() != nil {
				return false
			}
			if pba, found, mem := lookup(b, uint64(id)); !found || !mem || pba != alloc.PBA(id) {
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
// hot-index churn — the hot index only decides where an answer comes
// from. A write may land on a block that held another content: that
// content's entry stays, and forgetting the block removes the new
// content's entry if it still names the block.
func TestFullProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := newFull(4)
		model := map[uint64]alloc.PBA{}
		content := map[alloc.PBA]uint64{}
		for _, raw := range ops {
			id := uint64(raw % 32)
			pba := alloc.PBA(raw%64) + 1
			switch raw % 3 {
			case 0, 1:
				put(b, id, pba)
				model[id] = pba
				content[pba] = id
			case 2:
				forget(b, pba)
				if id2, ok := content[pba]; ok && model[id2] == pba {
					delete(model, id2)
				}
			}
			for id2 := uint64(0); id2 < 32; id2++ {
				want, ok := model[id2]
				if got, found, _ := lookup(b, id2); found != ok || got != want {
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

// modelTwin is Full-Dedupe with a reference table fed the same inserts.
type modelTwin struct {
	fullDedupe
	ref map[chunk.Fingerprint]alloc.PBA
}

func (p modelTwin) Placed(b *engine.Base, w *engine.WriteOp) {
	p.fullDedupe.Placed(b, w)
	for k, pos := range w.Placed {
		p.ref[w.Chunks[pos].FP] = w.PBAs[k]
	}
}

// TestFullForgetMatchesReverseMap: Full-Dedupe's forget, which
// re-derives a freed block's fingerprint from its residual content,
// leaves the table entry for entry where a reverse-map forget would —
// every entry naming a freed block goes, and only those — over a seeded
// trace of overwrites, duplicates within a request included (so one
// fingerprint's entry moves past a block that stays live), with a crash
// and recovery midway. The reference table takes the same inserts and,
// after every request, drops whatever entry names a block that no
// longer holds its content; the two must then be equal.
func TestFullForgetMatchesReverseMap(t *testing.T) {
	c := cfg()
	c.NVRAMBytes = 1 << 20
	b := engine.NewBase(c)
	ref := map[chunk.Fingerprint]alloc.PBA{}
	p := engine.New("Full-Dedupe", b, modelTwin{ref: ref})

	r := rand.New(rand.NewSource(7))
	const requests = 3000
	tm := sim.Time(0)
	forgotten := 0
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
		for f, pba := range ref {
			if id, live := b.Store.Read(pba); !live || id.Fingerprint() != f {
				delete(ref, f)
				forgotten++
			}
		}
		if b.Exact.Len() != len(ref) {
			t.Fatalf("after request %d: %d entries, the reference %d", i, b.Exact.Len(), len(ref))
		}
		b.Exact.Each(func(f chunk.Fingerprint, pba alloc.PBA) bool {
			if want, ok := ref[f]; !ok || want != pba {
				t.Fatalf("after request %d: fingerprint %x names block %d, the reference %d (%v)", i, f[:4], pba, want, ok)
			}
			return true
		})
	}
	if p.Stats().ChunksDeduped == 0 || b.Alloc.Used() == 0 || forgotten == 0 {
		t.Fatalf("the trace exercised too little: %d deduplicated, %d used, %d forgotten",
			p.Stats().ChunksDeduped, b.Alloc.Used(), forgotten)
	}
}

// After a crash the hot index comes back cold, like every DRAM cache,
// while the full table — the on-disk index — survives: a rewrite of
// known content pays an index-zone read per chunk and still
// deduplicates every one.
func TestFullDedupeHotIndexColdAfterRecovery(t *testing.T) {
	c := cfg()
	c.NVRAMBytes = 1 << 20
	p := NewFullDedupe(c)
	ids := seq(100, 4)
	p.Write(wr(0, ids...))
	p.Write(at(wr(50, ids...), sim.Time(sim.Second))) // warm: memory hits
	if got := p.Stats().IndexDiskIOs; got != 0 {
		t.Fatalf("%d index-zone reads before the crash, want 0", got)
	}
	if _, err := p.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	pre := p.Stats().ChunksDeduped
	p.Write(at(wr(100, ids...), sim.Time(2*sim.Second)))
	if got := p.Stats().IndexDiskIOs; got != int64(len(ids)) {
		t.Fatalf("%d index-zone reads after the crash, want %d (one per chunk)", got, len(ids))
	}
	if got := p.Stats().ChunksDeduped - pre; got != int64(len(ids)) {
		t.Fatalf("%d chunks deduplicated after the crash, want %d", got, len(ids))
	}
}
