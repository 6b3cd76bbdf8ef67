package baseline

import (
	"encoding/binary"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/probe"
	"github.com/pod-dedup/pod/internal/sim"
)

// fullDedupe is traditional inline deduplication: every redundant chunk
// is eliminated, using the complete fingerprint table. Only the hot
// portion of that table fits in the index cache; a lookup that misses
// it pays an on-disk index I/O (§II-B), except when a Bloom filter
// proves the fingerprint absent. Deduplicating partially redundant
// requests freely is what exposes Full-Dedupe to the read-amplification
// problem the paper dissects.
type fullDedupe struct {
	engine.Passthrough
	full *fullIndex
}

// BloomFalsePositivePermille is the modeled Bloom-filter false-positive
// rate for absent fingerprints (≈1 %), the standard mitigation (Zhu et
// al., FAST'08) that keeps unique data from paying a disk lookup per
// chunk.
const BloomFalsePositivePermille = 10

// NewFullDedupe returns a Full-Dedupe engine.
func NewFullDedupe(cfg engine.Config) *engine.Pipeline {
	b := engine.NewBase(cfg)
	// the in-memory portion of the full table is the index cache
	f := fullDedupe{full: newFullIndex(b.IC.IndexCapTotal(), b.Store)}
	b.OnFree = f.full.forget
	return engine.New("Full-Dedupe", b, f)
}

// bloomAdmits reports whether the Bloom filter (falsely) claims an
// absent fingerprint might be present, forcing a disk lookup. The
// decision is a deterministic hash of the fingerprint.
func bloomAdmits(fp chunk.Fingerprint) bool {
	v := binary.LittleEndian.Uint16(fp[4:6])
	return int(v%1000) < BloomFalsePositivePermille
}

// Lookup consults the full table and pays one index-zone read per
// chunk the memory-resident portion (or the Bloom filter) cannot
// answer; a failed index read fails the request.
func (f fullDedupe) Lookup(b *engine.Base, w *engine.WriteOp, at sim.Time) (sim.Time, error) {
	diskLookups := 0
	for i := range w.Chunks {
		pba, ok, memHit := f.full.lookup(w.Chunks[i].FP)
		w.Dup[i] = ok
		w.Target[i] = pba
		if ok && !memHit {
			diskLookups++
		} else if !ok && bloomAdmits(w.Chunks[i].FP) {
			diskLookups++
		}
	}
	return b.IndexZoneIO(at, diskLookups)
}

// Decide deduplicates every hit.
func (fullDedupe) Decide(_ *engine.Base, w *engine.WriteOp) { copy(w.Dedupe, w.Dup) }

func (f fullDedupe) Placed(_ *engine.Base, w *engine.WriteOp) {
	for k, pos := range w.Placed {
		f.full.insert(w.Chunks[pos].FP, w.PBAs[k])
	}
}

// fullIndex is Full-Dedupe's complete fingerprint table: every stored
// chunk's fingerprint is known, but only the hot subset lives in memory
// — a lookup that misses the hot portion costs the engine an on-disk
// index I/O (§II-B). The hot portion is always a subset of the table,
// with the same blocks.
type fullIndex struct {
	all   *probe.Map[chunk.Fingerprint, alloc.PBA]
	hot   *cache.LRU[chunk.Fingerprint, alloc.PBA]
	store *engine.Store // what forget re-derives a freed block's fingerprint from
}

// newFullIndex returns a full index over store whose in-memory hot
// portion holds hotCapacity entries.
func newFullIndex(hotCapacity int, store *engine.Store) *fullIndex {
	return &fullIndex{
		all:   probe.NewMap[chunk.Fingerprint, alloc.PBA](0),
		hot:   cache.NewLRU[chunk.Fingerprint, alloc.PBA](hotCapacity),
		store: store,
	}
}

// lookup searches for fp. memHit reports whether the answer came from
// the in-memory hot portion; when false and the fingerprint exists (or
// must be proven absent), the engine charges an on-disk index lookup.
// Found entries are promoted into the hot portion, whose evictions are
// discarded (Full-Dedupe's consistency comes from forget on free).
func (f *fullIndex) lookup(fp chunk.Fingerprint) (pba alloc.PBA, found, memHit bool) {
	if pba, ok := f.hot.Get(fp); ok {
		return pba, true, true
	}
	pba, found = f.all.Get(fp)
	if found {
		f.hot.Put(fp, pba)
	}
	return pba, found, false
}

// insert records fp → pba, replacing fp's previous block, in both the
// table and the hot portion. A binding the hot portion already holds
// keeps its place: re-inserting it does not promote it.
func (f *fullIndex) insert(fp chunk.Fingerprint, pba alloc.PBA) {
	f.all.Put(fp, pba)
	if old, ok := f.hot.Peek(fp); !ok || old != pba {
		f.hot.Put(fp, pba)
	}
}

// forget drops the entry naming a freed block, so the index never
// resurrects a dead block. There is no block → fingerprint map: every
// entry is inserted for a freshly written block under the fingerprint
// of its content, and a dedup engine writes the Store only into freshly
// allocated blocks, so the block's residual content names the one
// fingerprint whose entry can name it (the out-of-line scanner's rule,
// bgdedup.Core).
func (f *fullIndex) forget(pba alloc.PBA) {
	id, ok := f.store.Residual(pba)
	if !ok {
		return
	}
	fp := id.Fingerprint()
	if cur, found := f.all.Get(fp); found && cur == pba {
		f.all.Delete(fp)
		f.hot.Remove(fp)
	}
}
