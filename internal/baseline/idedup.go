package baseline

import (
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// iDedup reproduces the capacity-oriented scheme of Srinivasan et al.
// (FAST'12): deduplicate only *large sequential* duplicate runs, and
// bypass all small requests entirely — they contribute little capacity
// and selective bypass caps the latency impact. Small requests are not
// even fingerprinted, which is why iDedup's overhead (and its benefit)
// is minimal on small-write-dominated primary workloads.
type iDedup struct{}

// NewIDedup returns an iDedup engine; cfg.IDedupThreshold (chunks) sets
// the minimum duplicate sequence worth deduplicating.
func NewIDedup(cfg engine.Config) *engine.Pipeline {
	return engine.New("iDedup", engine.NewBase(cfg), iDedup{})
}

func (iDedup) Fingerprinted(b *engine.Base, req *trace.Request) bool {
	return req.N >= b.Cfg.IDedupThreshold
}

func (iDedup) Lookup(b *engine.Base, w *engine.WriteOp, at sim.Time) (sim.Time, error) {
	for i := range w.Chunks {
		if e, ok := b.IC.IndexLookup(w.Chunks[i].FP); ok {
			w.Dup[i] = true
			w.Target[i] = e.PBA
		}
	}
	return at, nil
}

// Decide selects the maximal sequential duplicate runs of at least the
// threshold length.
func (iDedup) Decide(b *engine.Base, w *engine.WriteOp) {
	dup, target := w.Dup, w.Target
	i := 0
	for i < len(dup) {
		if !dup[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(dup) && dup[j] && target[j] == target[j-1]+1 {
			j++
		}
		if j-i >= b.Cfg.IDedupThreshold {
			for k := i; k < j; k++ {
				w.Dedupe[k] = true
			}
		}
		i = j
	}
}

// Placed indexes what was fingerprinted; bypassed requests leave no
// trace in the index.
func (iDedup) Placed(b *engine.Base, w *engine.WriteOp) {
	if !w.Hashed {
		return
	}
	for k, pos := range w.Placed {
		b.IC.IndexInsert(w.Chunks[pos].FP, w.PBAs[k])
	}
}
