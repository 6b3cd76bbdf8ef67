package baseline

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// postProcess reproduces post-processing (offline) deduplication in the
// style of El-Shimi et al. (USENIX ATC'12), the paper's third Table I
// column. Writes go straight to disk with no inline work at all — no
// fingerprinting on the critical path — and a background scanner later
// fingerprints recently written blocks, merges duplicates into shared
// mappings, and reclaims space.
//
// The scheme therefore saves capacity (eventually) but never removes
// write I/O from the critical path — which is precisely why §II-A
// argues on-line deduplication is more effective for primary storage:
// by the time the scanner runs, the redundant writes have already cost
// their disk time. The scanner's own reads add background load.
//
// The fingerprinting, batched background reads, and merge mechanics are
// the shared out-of-line core (internal/bgdedup); what stays here is
// the policy — nothing is fingerprinted inline, and every placement
// joins a queue of recently written blocks that the engine's background
// tick drains in batches.
type postProcess struct {
	engine.Passthrough
	b    *engine.Base
	core *bgdedup.Core

	// scan queue of recently written blocks: (lba, pba) pairs pending
	// background fingerprinting
	pending []pendingBlock

	nextScan sim.Time
	scans    int64
}

// scanInterval and scanBatch govern the background pass.
const (
	scanInterval = 2 * sim.Second
	scanBatch    = 2048
)

type pendingBlock struct {
	lba uint64
	pba alloc.PBA
}

// NewPostProcess returns a post-processing deduplication engine.
func NewPostProcess(cfg engine.Config) *engine.Pipeline {
	b := engine.NewBase(cfg)
	p := &postProcess{b: b, core: bgdedup.NewCore(b), nextScan: sim.Time(scanInterval)}
	b.Reg.GaugeFunc("postprocess_scan_passes", func() int64 { return p.scans })
	b.Reg.GaugeFunc("postprocess_blocks_scanned", func() int64 {
		scanned, _, _, _, _ := p.core.Counters()
		return scanned
	})
	b.Reg.GaugeFunc("postprocess_blocks_merged", func() int64 {
		_, merged, _, _, _ := p.core.Counters()
		return merged
	})
	b.Reg.GaugeFunc("postprocess_scan_backlog", func() int64 { return int64(len(p.pending)) })
	b.Background = p
	return engine.New("Post-Process", b, p)
}

// Fingerprinted: never — no inline work at all.
func (*postProcess) Fingerprinted(*engine.Base, *trace.Request) bool { return false }

// Placed queues the fresh blocks for the background scanner.
func (p *postProcess) Placed(_ *engine.Base, w *engine.WriteOp) {
	for k, pos := range w.Placed {
		p.pending = append(p.pending, pendingBlock{lba: w.Req.LBA + uint64(pos), pba: w.PBAs[k]})
	}
}

// maxScanIOs caps the disk passes one scan interval may issue, so a
// fragmented batch can never monopolize the spindles.
const maxScanIOs = 24

// Tick implements engine.BackgroundTask: when the scan interval has
// elapsed it reads back a batch of recently written blocks (sequential
// background I/O — they were written contiguously), fingerprints them,
// and merges duplicates into shared mappings.
func (p *postProcess) Tick(now sim.Time) {
	if now < p.nextScan || len(p.pending) == 0 {
		return
	}
	// scan during idle periods only (El-Shimi et al. §5: the scanner
	// yields to foreground I/O); retry shortly if the array is busy
	if p.b.Array.Backlog(now) > 0 {
		p.nextScan = now.Add(scanInterval / 4)
		return
	}
	p.nextScan = now.Add(scanInterval)
	p.scans++

	batch := p.pending
	if len(batch) > scanBatch {
		batch = batch[:scanBatch]
	}
	p.pending = p.pending[len(batch):]

	// The scanner reads its batch elevator-style through the shared
	// core; blocks that missed this pass's I/O budget go back to the
	// queue.
	pbas := make([]alloc.PBA, len(batch))
	for i, blk := range batch {
		pbas[i] = blk.pba
	}
	read := p.core.ReadBatch(now, pbas, maxScanIOs)

	var deferred []pendingBlock
	kept := batch[:0]
	for _, blk := range batch {
		if read[blk.pba] {
			kept = append(kept, blk)
		} else {
			deferred = append(deferred, blk)
		}
	}
	batch = kept
	p.pending = append(deferred, p.pending...)

	for _, blk := range batch {
		p.core.MergeLBA(blk.lba, blk.pba)
	}
}

// Flush implements engine.BackgroundTask: the scanner drains its whole
// queue (used at the end of a replay so capacity numbers reflect a
// completed pass).
func (p *postProcess) Flush(now sim.Time) {
	for len(p.pending) > 0 {
		p.nextScan = now
		p.Tick(now)
		now = now.Add(scanInterval)
	}
}

// RecoverReset implements engine.BackgroundTask: the queue and the
// fingerprint table are DRAM state.
func (p *postProcess) RecoverReset() {
	p.pending = nil
	p.core.Reset()
}
