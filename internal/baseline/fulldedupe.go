package baseline

import (
	"encoding/binary"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
)

// fullDedupe is traditional inline deduplication: every redundant chunk
// is eliminated, using the complete fingerprint table (Base.Exact, the
// on-disk index). Only its hot subset fits in memory — the iCache's
// index partition, fixed at its share of the budget —; a lookup that
// misses it pays an on-disk index I/O (§II-B), except when a Bloom
// filter proves the fingerprint absent. Deduplicating partially
// redundant requests freely is what exposes Full-Dedupe to the
// read-amplification problem the paper dissects.
type fullDedupe struct {
	engine.Passthrough
}

// BloomFalsePositivePermille is the modeled Bloom-filter false-positive
// rate for absent fingerprints (≈1 %), the standard mitigation (Zhu et
// al., FAST'08) that keeps unique data from paying a disk lookup per
// chunk.
const BloomFalsePositivePermille = 10

// NewFullDedupe returns a Full-Dedupe engine.
func NewFullDedupe(cfg engine.Config) *engine.Pipeline {
	return engine.New("Full-Dedupe", engine.NewBase(cfg), fullDedupe{})
}

// bloomAdmits reports whether the Bloom filter (falsely) claims an
// absent fingerprint might be present, forcing a disk lookup. The
// decision is a deterministic hash of the fingerprint.
func bloomAdmits(fp chunk.Fingerprint) bool {
	v := binary.LittleEndian.Uint16(fp[4:6])
	return int(v%1000) < BloomFalsePositivePermille
}

// Lookup consults the hot index, then the full table, and pays one
// index-zone read per chunk memory (or the Bloom filter) cannot answer;
// a found entry is promoted into the hot index. A failed index read
// fails the request.
func (fullDedupe) Lookup(b *engine.Base, w *engine.WriteOp, at sim.Time) (sim.Time, error) {
	diskLookups := 0
	for i := range w.Chunks {
		fp := w.Chunks[i].FP
		if e, ok := b.IC.IndexLookup(fp); ok {
			w.Dup[i], w.Target[i] = true, e.PBA
			continue
		}
		pba, ok := b.Exact.Get(fp)
		w.Dup[i], w.Target[i] = ok, pba
		if ok {
			b.IC.IndexInsert(fp, pba)
			diskLookups++
		} else if bloomAdmits(fp) {
			diskLookups++
		}
	}
	return b.IndexZoneIO(at, diskLookups)
}

// Decide deduplicates every hit.
func (fullDedupe) Decide(_ *engine.Base, w *engine.WriteOp) { copy(w.Dedupe, w.Dup) }

// Placed records each fresh block in the full table and the hot index,
// replacing its fingerprint's previous block. A binding the hot index
// already holds keeps its place in recency order (IndexInsert does not
// promote it): the disk-lookup counts depend on it.
func (fullDedupe) Placed(b *engine.Base, w *engine.WriteOp) {
	for k, pos := range w.Placed {
		b.Exact.Put(w.Chunks[pos].FP, w.PBAs[k])
		b.IC.IndexInsert(w.Chunks[pos].FP, w.PBAs[k])
	}
}
