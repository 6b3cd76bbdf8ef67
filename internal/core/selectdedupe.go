package core

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
)

// selectDedupe is POD's write-path policy: request-based selective
// inline deduplication (Figure 6). The hot index is consulted in memory
// only — and, where the shard has a seat in the global fingerprint tier,
// the tier's hints on a miss — the request is classified per Figure 5,
// and everything written fresh is indexed under the request's stream.
type selectDedupe struct{ engine.Passthrough }

// NewSelectDedupe returns the Select-Dedupe engine with the fixed
// 50/50 cache partition used in §IV-B.
func NewSelectDedupe(cfg engine.Config) *engine.Pipeline {
	cfg.Adaptive = false
	return engine.New("Select-Dedupe", engine.NewBase(cfg), selectDedupe{})
}

// NewPOD returns the full POD engine: Select-Dedupe plus the adaptive
// iCache partitioning of §III-C.
func NewPOD(cfg engine.Config) *engine.Pipeline {
	cfg.Adaptive = true
	return engine.New("POD", engine.NewBase(cfg), selectDedupe{})
}

// warmRun is how many fingerprints one directory warm takes: about as
// many cache misses as a core keeps in flight.
const warmRun = 16

// Lookup probes the hot index for every chunk. A request of several
// chunks first warms their directory buckets, so the probes' cache
// misses overlap instead of queueing one behind another.
func (selectDedupe) Lookup(b *engine.Base, w *engine.WriteOp, at sim.Time) (sim.Time, error) {
	if len(w.Chunks) > 1 {
		var fps [warmRun]chunk.Fingerprint
		for lo := 0; lo < len(w.Chunks); lo += warmRun {
			run := w.Chunks[lo:min(lo+warmRun, len(w.Chunks))]
			for i := range run {
				fps[i] = run[i].FP
			}
			b.IC.Warm(fps[:len(run)])
		}
	}
	stream := uint32(w.Req.Stream)
	for i := range w.Chunks {
		if e, ok := b.IC.IndexLookupS(stream, w.Chunks[i].FP); ok {
			w.Dup[i] = true
			w.Target[i] = e.PBA
		} else if b.Tier != nil {
			w.Target[i], w.Dup[i] = b.Tier.Hint(w.Chunks[i].FP)
		}
	}
	return at, nil
}

func (selectDedupe) Decide(b *engine.Base, w *engine.WriteOp) {
	switch ClassifyInto(w.Dedupe, w.Dup, w.Target, b.Cfg.Threshold) {
	case Cat1:
		b.St.Cat1++
	case Cat2:
		b.St.Cat2++
	case Cat3:
		b.St.Cat3++
	}
}

// Placed indexes the fresh chunks and, when a global tier is attached,
// publishes the request's advertisements to it in one batch: an inline
// hit against a local copy is duplicate evidence (remote hits are
// already global knowledge), a fresh chunk a canonical candidate. The
// tier lands the batch in the call and never blocks on its load.
func (selectDedupe) Placed(b *engine.Base, w *engine.WriteOp) {
	stream := uint32(w.Req.Stream)
	for k, pos := range w.Placed {
		b.IC.IndexInsertS(stream, w.Chunks[pos].FP, w.PBAs[k])
	}
	if b.Tier != nil {
		w.Ads = w.Ads[:0]
		for i, absorbed := range w.Dedupe {
			if absorbed && !alloc.IsRemote(w.Target[i]) {
				w.Ads = append(w.Ads, engine.Ad{FP: w.Chunks[i].FP, PBA: w.Target[i]})
			}
		}
		for k, pos := range w.Placed {
			w.Ads = append(w.Ads, engine.Ad{FP: w.Chunks[pos].FP, PBA: w.PBAs[k], Fresh: true})
		}
		b.Tier.Advertise(w.Ads)
	}
	b.NoteStreamWrite(w.Req.Stream, len(w.Placed) == 0)
}
