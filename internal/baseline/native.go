// Package baseline implements the comparison systems of the POD
// evaluation (§IV) — the plain HDD array without deduplication
// (Native), traditional full inline deduplication (Full-Dedupe), the
// capacity-oriented selective scheme iDedup — and the two remaining
// Table I columns (I/O Deduplication, post-processing). Each is a
// policy over the one engine.Pipeline, so differences between schemes
// come only from what their policies answer.
package baseline

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// native is the paper's reference system: writes go to disk in place at
// their logical addresses, reads pass through the storage read cache.
// No fingerprinting, no Map table, no space savings — so it services
// its writes itself and answers occupancy and content from the identity
// mapping. Its reads take the shared path: it never maps an LBA, so
// every Map-table lookup misses and falls to the block's home position,
// lba mod the data blocks, which is where Write put it.
type native struct{ engine.Passthrough }

// NewNative returns a Native engine over cfg's array and cache budget.
func NewNative(cfg engine.Config) *engine.Pipeline {
	cfg.NVRAMBytes = 0 // no Map table, so nothing to journal or recover
	return engine.New("Native", engine.NewBase(cfg), native{})
}

// UsedBlocks reports the in-place footprint: every distinct logical
// block ever written occupies its own physical block.
func (native) UsedBlocks(b *engine.Base) uint64 { return uint64(b.Store.Len()) }

// ReadContent resolves lba via the identity mapping.
func (native) ReadContent(b *engine.Base, lba uint64) (uint64, bool) {
	id, ok := b.Store.Read(alloc.PBA(lba % b.DataBlocks()))
	return uint64(id), ok
}

// Write services a write in place. A failed write leaves the content
// model untouched — the old blocks remain visible.
func (native) Write(b *engine.Base, req *trace.Request) (sim.Duration, error) {
	t := req.Time
	start := req.LBA % b.DataBlocks()
	done, err := b.Array.Write(t, start, uint64(req.N))
	if err != nil {
		return done.Sub(t), err
	}
	b.Ph.Observe(metrics.PhaseDiskWrite, int64(done.Sub(t)))
	for i := 0; i < req.N; i++ {
		b.Store.Write(alloc.PBA(start+uint64(i)), req.Content[i])
	}
	b.St.ChunksWritten += int64(req.N)
	return done.Sub(t), nil
}
