package baseline

import (
	"encoding/binary"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/index"
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
	full *index.Full
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
	f := fullDedupe{full: index.NewFull(b.IC.IndexCapTotal())}
	b.OnFree = f.full.Forget
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
		pba, ok, memHit := f.full.Lookup(w.Chunks[i].FP)
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
		f.full.Insert(w.Chunks[pos].FP, w.PBAs[k])
	}
}
