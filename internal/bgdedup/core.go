// Package bgdedup implements idle-aware background out-of-line
// deduplication: the capacity-reclamation counterpart to POD's
// latency-oriented inline path.
//
// Select-Dedupe deliberately skips deduplication for Category-2
// requests and cold fingerprints to protect foreground latency,
// permanently leaving duplicate physical copies on disk — the gap
// between I/O redundancy and capacity redundancy the paper quantifies
// in its Figure 2 discussion. Hybrid inline/out-of-line designs (Li et
// al., "Efficient Hybrid Inline and Out-of-line Deduplication for
// Backup Storage"; Wu et al., HPDedup) recover that gap in the
// background: keep the write path selective, then scan and merge the
// sacrificed duplicates during idle windows. This package is that
// second stage.
//
// Two consumers share the machinery here:
//
//   - Scanner (scanner.go) sweeps the resident data region of a
//     Select-Dedupe/POD engine, driven from the engine's per-request
//     Tick, and rewires every referrer of a duplicate block to one
//     canonical copy.
//   - The Post-Process baseline (internal/baseline) keeps its own
//     recently-written queue policy but delegates fingerprinting,
//     batched background reads, and merging to the same Core.
//
// All background I/O is issued through the engine's array in virtual
// time, so it shares the disk queues with foreground requests; all
// remapping goes through the journaled Map table, so an interrupted
// pass is crash-consistent by construction.
package bgdedup

import (
	"slices"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/probe"
	"github.com/pod-dedup/pod/internal/sim"
)

// Core is the shared out-of-line merge machinery: a fingerprint→PBA
// table of canonical copies, elevator-ordered background reads, and
// the two merge operations (single-LBA for the post-process queue,
// whole-block referrer rewiring for the scanner).
type Core struct {
	b   *engine.Base
	fps *probe.Map[chunk.Fingerprint, alloc.PBA]

	refs []uint64 // Referrers scratch, reused by every merge

	scanned    int64 // live blocks fingerprinted
	mergedLBAs int64 // single-LBA merges (post-process path)
	dupBlocks  int64 // duplicate physical copies found (scanner path)
	remapped   int64 // LBAs rewired to a canonical copy
	reclaimed  int64 // physical blocks freed by merging
	seqSwaps   int64 // canonical choices flipped to preserve sequentiality
}

// NewCore attaches merge machinery to an engine substrate. The
// fingerprint table is exact, volatile DRAM state; entries naming
// reclaimed blocks are dropped through the engine's OnFree hook
// (chained, so an existing hook keeps firing).
func NewCore(b *engine.Base) *Core {
	c := &Core{b: b}
	c.Reset()
	prev := b.OnFree
	b.OnFree = func(pba alloc.PBA) {
		c.forget(pba)
		if prev != nil {
			prev(pba)
		}
	}
	return c
}

// forget drops the entry naming a freed block. The table keeps each
// key once, with no block → fingerprint map beside it: an entry is
// only ever made for a live block under the fingerprint of what it
// holds, and a dedup engine writes the Store only into freshly
// allocated blocks, so the block's residual content still names the
// one fingerprint whose entry can name it.
func (c *Core) forget(pba alloc.PBA) {
	id, ok := c.b.Store.Residual(pba)
	if !ok {
		return
	}
	fp := id.Fingerprint()
	if can, found := c.fps.Get(fp); found && can == pba {
		c.fps.Delete(fp)
	}
}

// Counters returns the core's lifetime work: blocks fingerprinted,
// single-LBA merges, duplicate blocks found, LBAs rewired, and
// physical blocks reclaimed.
func (c *Core) Counters() (scanned, mergedLBAs, dupBlocks, remapped, reclaimed int64) {
	return c.scanned, c.mergedLBAs, c.dupBlocks, c.remapped, c.reclaimed
}

// Reset drops the volatile fingerprint table (crash recovery: DRAM is
// lost; the journaled Map table already holds every durable effect, so
// re-scanning is idempotent — a block merged before the crash simply
// has no duplicate left to find).
func (c *Core) Reset() {
	c.fps = probe.NewMap[chunk.Fingerprint, alloc.PBA](0)
}

// ReadBatch reads the given physical blocks back elevator-style: sorted
// by address so that scattered blocks coalesce into few large
// sequential background sweeps, capped at maxIOs disk passes per call
// so a fragmented batch can never monopolize the spindles. It returns
// the set of blocks actually covered by this call's I/O budget; callers
// requeue the rest. Read errors are ignored — this path serves the
// post-process queue, whose blocks are re-validated against the content
// model before any merge.
func (c *Core) ReadBatch(now sim.Time, pbas []alloc.PBA, maxIOs int) map[alloc.PBA]bool {
	sorted := append([]alloc.PBA(nil), pbas...)
	slices.Sort(sorted)

	read := make(map[alloc.PBA]bool, len(sorted))
	ios := 0
	i := 0
	for i < len(sorted) && ios < maxIOs {
		j := i + 1
		for j < len(sorted) && sorted[j] <= sorted[j-1]+1 {
			j++
		}
		c.b.Array.Read(now, uint64(sorted[i]), uint64(sorted[j-1]-sorted[i])+1)
		c.b.St.SwapInIOs++ // accounted as background I/O
		ios++
		for k := i; k < j; k++ {
			read[sorted[k]] = true
		}
		i = j
	}
	return read
}

// MergeLBA fingerprints the block expected at (lba, pba) and merges
// that single mapping into an existing copy of the same content, if one
// is known. The mapping is re-validated first — the block may have been
// overwritten or reclaimed since it was queued. Returns true when the
// LBA was rewired (its block's reference dropped).
func (c *Core) MergeLBA(lba uint64, pba alloc.PBA) bool {
	cur, ok := c.b.Map.Lookup(lba)
	if !ok || cur != pba {
		return false
	}
	id, ok := c.b.Store.Read(pba)
	if !ok {
		return false
	}
	c.scanned++
	fp := id.Fingerprint()
	if existing, found := c.fps.Get(fp); found && existing != pba {
		if c.b.TryDedupe(lba, existing, id) {
			c.mergedLBAs++
			return true
		}
	}
	c.fps.Put(fp, pba)
	return false
}

// ScanBlock offers one live block to the canonical table: if another
// live block already holds the same content, every LBA referencing the
// duplicate is rewired to one canonical copy — chosen to preserve
// on-disk sequentiality — and the duplicate is freed. Returns the LBAs
// remapped and physical blocks reclaimed (both zero when the block
// became the canonical copy itself).
func (c *Core) ScanBlock(pba alloc.PBA, id chunk.ContentID) (remapped, reclaimed int) {
	c.scanned++
	fp := id.Fingerprint()

	can, found := c.fps.Get(fp)
	if !found || can == pba {
		if !found {
			c.fps.Put(fp, pba)
		}
		return 0, 0
	}
	// The table entry may be stale (canonical overwritten since):
	// validate content before touching any mapping, exactly like the
	// inline path's consistency check.
	if got, ok := c.b.Store.Read(can); !ok || got != id || c.b.Map.RefCount(can) == 0 {
		c.fps.Put(fp, pba)
		return 0, 0
	}

	// Choose the copy to keep by on-disk sequentiality: the copy whose
	// referrers' logical neighbours also sit at its physical neighbours
	// is the one POD's read locality depends on. Ties keep the earlier
	// (already canonical) copy.
	keep, drop := can, pba
	if c.seqScore(pba) > c.seqScore(can) {
		keep, drop = pba, can
		c.fps.Put(fp, keep)
		c.seqSwaps++
	}
	c.dupBlocks++

	for _, lba := range c.referrers(drop) {
		freed := c.b.Map.Set(lba, keep, true)
		remapped++
		reclaimed += len(freed)
		c.b.FreeBlocks(freed)
	}
	c.remapped += int64(remapped)
	c.reclaimed += int64(reclaimed)
	c.b.St.NVRAMPeakBytes = c.b.Map.PeakNVRAMBytes()
	return remapped, reclaimed
}

// FoldRemote is the remap-candidate intake of the global fingerprint
// tier: it merges a local duplicate copy onto a cross-shard canonical
// through the same revalidated path the cursor sweep uses. The
// candidate may be arbitrarily stale, so everything is re-checked at
// apply time — the duplicate must still be a live, referenced local
// block holding exactly the advertised content (re-read through the
// array in virtual time, so background I/O shares the disk queues and
// injected faults abort the candidate harmlessly; re-hashed against
// the advertised fingerprint). Every referrer is then rewired onto the
// remote canonical via the journaled Map.Set path, handing the local
// refcount to the remote reference and freeing the duplicate. Returns
// the LBAs rewired, the physical blocks reclaimed, and whether the
// candidate survived revalidation.
func (c *Core) FoldRemote(now sim.Time, dup alloc.PBA, fp chunk.Fingerprint, canon alloc.PBA) (remapped, reclaimed int, ok bool) {
	id, live := c.b.Store.Read(dup)
	if !live || c.b.Map.RefCount(dup) == 0 {
		return 0, 0, false
	}
	if id.Fingerprint() != fp {
		return 0, 0, false
	}
	if _, err := c.b.Array.Read(now, uint64(dup), 1); err != nil {
		return 0, 0, false
	}
	c.b.St.SwapInIOs++ // accounted as background I/O
	c.scanned++
	c.dupBlocks++

	before := c.b.Alloc.Used()
	for _, lba := range c.referrers(dup) {
		c.b.SetRemoteRef(lba, canon)
		remapped++
	}
	reclaimed = int(before - c.b.Alloc.Used())
	c.remapped += int64(remapped)
	c.reclaimed += int64(reclaimed)
	c.b.St.NVRAMPeakBytes = c.b.Map.PeakNVRAMBytes()
	return remapped, reclaimed, true
}

// referrers lists the LBAs mapped to pba in ascending order, in the
// core's scratch: valid until the next call, and unaffected by the
// remaps the caller applies while walking it.
func (c *Core) referrers(pba alloc.PBA) []uint64 {
	c.refs = c.b.Map.Referrers(c.refs[:0], pba)
	slices.Sort(c.refs)
	return c.refs
}

// seqScore counts how many of a block's referrers have a logical
// neighbour mapped to the corresponding physical neighbour — the
// "sequentially stored" property Select-Dedupe's classifier tests.
func (c *Core) seqScore(pba alloc.PBA) int {
	score := 0
	c.refs = c.b.Map.Referrers(c.refs[:0], pba)
	for _, lba := range c.refs {
		if lba > 0 && pba > 0 {
			if p, ok := c.b.Map.Lookup(lba - 1); ok && p == pba-1 {
				score++
			}
		}
		if p, ok := c.b.Map.Lookup(lba + 1); ok && p == pba+1 {
			score++
		}
	}
	return score
}
