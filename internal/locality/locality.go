// Package locality estimates per-stream temporal locality of write
// fingerprints and apportions a shared fingerprint-index cache between
// co-located tenant streams, in the spirit of HPDedup (arXiv
// 1702.08153): streams whose duplicates recur within a short reuse
// distance profit from inline index quota; streams whose duplicates
// recur beyond any realistic cache size (or not at all) only pollute
// it, and their capacity is better left to out-of-line deduplication.
//
// The estimator keeps, per stream, a small LRU sketch over a sampled
// subset of recently written fingerprints. A fingerprint that recurs
// while still in the sketch is a reuse hit: its reuse distance, in
// sampled unique fingerprints, is below the sketch capacity. With the
// sketch sized to (index-partition entries >> SampleShift), a reuse hit
// approximates "this write would have deduped inline had the stream
// owned the whole index partition". An exponentially decayed per-
// interval hit count then drives the apportioner: each active stream is
// guaranteed a shared floor, and the remaining capacity is divided
// proportionally to decayed reuse hits. Counts, not ratios, so a busy
// high-locality stream outweighs a trickle with the same hit rate.
//
// All state is owned by one engine and accessed from its serving
// goroutine only; the package does no locking.
package locality

import (
	"encoding/binary"

	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/chunk"
)

// Params configures an Estimator. The zero value selects defaults.
type Params struct {
	// SampleShift samples 1/2^shift of fingerprints into the sketch;
	// 0 selects the default of 2 (1/4 of fingerprints).
	SampleShift uint
	// WindowEntries is the per-stream sketch capacity in sampled
	// fingerprints (default 4096). Size it to the index partition scaled
	// by the sample rate so a sketch hit predicts an index hit.
	WindowEntries int
}

// The apportioner's fixed terms: no run varies them.
const (
	// decay is the per-interval retain factor of the reuse score:
	// score' = score*decay + intervalHits.
	decay = 0.5
	// floorFrac is the minimum share of the index partition guaranteed
	// to every active stream, clamped to 1/activeStreams when streams
	// are many.
	floorFrac = 0.10
	// idleIntervals drops a stream from apportionment after this many
	// consecutive intervals without a sampled write. Its sketch is
	// retained; it rejoins on the next write.
	idleIntervals = 4
)

// WithDefaults fills unset fields with their defaults.
func (p Params) WithDefaults() Params {
	if p.SampleShift == 0 {
		p.SampleShift = 2
	}
	if p.WindowEntries <= 0 {
		p.WindowEntries = 4096
	}
	return p
}

type streamEst struct {
	sketch *cache.LRU[uint64, struct{}]
	// current-interval counters, folded into score by Apportion.
	hits    int64
	samples int64
	// decayed reuse score, from which Apportion computes the share.
	score float64
	idle  int
}

// Estimator tracks per-stream reuse and computes index-cache shares.
type Estimator struct {
	p       Params
	streams map[uint32]*streamEst
	order   []uint32 // insertion order, for deterministic iteration
	mask    uint64
}

// New builds an estimator.
func New(p Params) *Estimator {
	p = p.WithDefaults()
	return &Estimator{
		p:       p,
		streams: make(map[uint32]*streamEst),
		mask:    (1 << p.SampleShift) - 1,
	}
}

// Record notes one written fingerprint on a stream. Sampling keys off
// the fingerprint's own bits, so the same content samples identically
// on every shard and run.
func (e *Estimator) Record(stream uint32, fp chunk.Fingerprint) {
	k := binary.LittleEndian.Uint64(fp[:8])
	if k&e.mask != 0 {
		return
	}
	s := e.streams[stream]
	if s == nil {
		s = &streamEst{sketch: cache.NewLRU[uint64, struct{}](e.p.WindowEntries)}
		e.streams[stream] = s
		e.order = append(e.order, stream)
	}
	s.samples++
	if _, ok := s.sketch.Touch(k); ok {
		s.hits++
	} else {
		s.sketch.Put(k, struct{}{})
	}
}

// Apportion closes the current measurement interval and returns the
// index-partition share per active stream (values in (0,1], summing to
// ≤ 1, each ≥ the effective floor). Streams idle beyond idleIntervals
// are excluded. Returns nil when no stream is active, meaning "keep
// whatever split is in force". Iteration is deterministic given the
// same Record history.
func (e *Estimator) Apportion() map[uint32]float64 {
	var active []uint32
	for _, id := range e.order {
		s := e.streams[id]
		s.score = s.score*decay + float64(s.hits)
		if s.samples == 0 {
			s.idle++
		} else {
			s.idle = 0
		}
		s.hits, s.samples = 0, 0
		if s.idle < idleIntervals {
			active = append(active, id)
		}
	}
	if len(active) == 0 {
		return nil
	}
	floor := floorFrac
	if max := 1.0 / float64(len(active)); floor > max {
		floor = max
	}
	total := 0.0
	for _, id := range active {
		total += e.streams[id].score
	}
	rem := 1.0 - floor*float64(len(active))
	shares := make(map[uint32]float64, len(active))
	for _, id := range active {
		if total > 0 {
			shares[id] = floor + rem*e.streams[id].score/total
		} else {
			shares[id] = 1.0 / float64(len(active))
		}
	}
	return shares
}
