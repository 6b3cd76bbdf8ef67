// Package icache implements POD's intelligent cache manager (§III-C):
// the adaptive partitioning of a fixed DRAM budget between the
// fingerprint index cache and the data read cache.
//
// The controller owns both actual caches and their metadata-only ghost
// caches. The Access Monitor counts, per evaluation interval, how often
// a miss in an actual cache *would have been* a hit with a larger cache
// (a ghost hit). The Swap Module then compares the cost-benefit of the
// two ghosts — ghost hits weighted by the I/O time each kind of hit
// saves — and repartitions the budget toward the cache whose growth
// pays more, swapping the most recent ghost entries back in. Swapped-in
// read blocks must be fetched from the back-end store, so the
// controller surfaces them to the engine, which charges background disk
// reads.
//
// With adaptation disabled the controller degrades to the fixed
// partition used by the paper's Full-Dedupe / iDedup / Select-Dedupe
// configurations (§IV-B: "equal spaces to the index cache and read
// cache"), keeping every engine on one code path.
package icache

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/index"
	"github.com/pod-dedup/pod/internal/probe"
	"github.com/pod-dedup/pod/internal/sim"
)

// Params configures the controller.
type Params struct {
	TotalBytes      int64        // the DRAM budget to split
	IndexEntryBytes int          // in-memory footprint of one index entry
	BlockBytes      int          // footprint of one cached data block
	IndexFrac       float64      // initial index-cache share (0,1)
	Adaptive        bool         // enable iCache adaptation
	Interval        sim.Duration // evaluation interval (virtual time)
	MinFrac         float64      // lower bound on either share
	Step            float64      // share moved per repartition
	WriteBenefitUS  int64        // saved cost per avoided duplicate write
	ReadBenefitUS   int64        // saved cost per avoided read miss
}

// DefaultParams returns the configuration used by the experiments: a
// 50/50 initial split, 500 ms evaluation interval, 10 % floor, 12.5 %
// step, and benefit weights approximating one avoided disk I/O each.
func DefaultParams(totalBytes int64) Params {
	return Params{
		TotalBytes:      totalBytes,
		IndexEntryBytes: 64,
		BlockBytes:      chunk.Size,
		IndexFrac:       0.5,
		Adaptive:        false,
		Interval:        250 * sim.Millisecond,
		MinFrac:         0.25,
		Step:            0.0625,
		// an avoided duplicate write saves a RAID5 read-modify-write
		// (two serialized disk phases); an avoided read miss saves one
		// disk access — hence the 2:1 benefit weighting
		WriteBenefitUS: 16000,
		ReadBenefitUS:  8000,
	}
}

// ghostIndexEntry preserves the metadata needed to re-admit an index
// entry on swap-in; stream remembers the owning tenant so stream-mode
// swap-ins return the entry to the right quota.
type ghostIndexEntry struct {
	pba    alloc.PBA
	stream uint32
}

// Controller manages the partitioned storage cache.
type Controller struct {
	p Params

	streamState

	idx      *index.Hot
	ghostIdx *cache.LRU[chunk.Fingerprint, ghostIndexEntry]
	// idxRev maps a physical block to the fingerprints referencing it
	// from the hot index or the ghost index, so PurgePBA can drop
	// every entry for a freed block — the consistency mechanism that
	// replaces in-place overwrite protection in this log-structured
	// substrate. Nearly every block is referenced by exactly one
	// fingerprint, so the first one lives inline in the map value and
	// only collisions beyond it pay for an overflow slice.
	idxRev *probe.Map[alloc.PBA, revEntry]

	read      *cache.LRU[alloc.PBA, struct{}]
	ghostRead *cache.Ghost[alloc.PBA]

	indexFrac float64
	nextEval  sim.Time

	// Access Monitor counters for the current interval.
	ghostIdxHits, ghostReadHits int64
	idxHits, readHits           int64
	idxMisses, readMisses       int64

	// lifetime accounting
	repartitions          int64
	totalGhostIdxHits     int64
	totalGhostReadHits    int64
	swapInsIdx, swapInsRd int64

	history []FracPoint
}

// FracPoint records the partition after one repartition decision.
type FracPoint struct {
	Time      sim.Time
	IndexFrac float64
}

// New returns a controller with the partition at p.IndexFrac.
func New(p Params) *Controller {
	if p.TotalBytes <= 0 {
		panic("icache: non-positive budget")
	}
	if p.IndexEntryBytes <= 0 || p.BlockBytes <= 0 {
		panic("icache: non-positive entry sizes")
	}
	if p.IndexFrac <= 0 || p.IndexFrac >= 1 {
		panic(fmt.Sprintf("icache: index fraction %f out of (0,1)", p.IndexFrac))
	}
	c := &Controller{p: p, indexFrac: p.IndexFrac, nextEval: sim.Time(p.Interval)}
	ic, rc := c.capacitiesFor(p.IndexFrac)
	c.icEntries = ic
	c.idx = index.NewHot(ic)
	c.read = cache.NewLRU[alloc.PBA, struct{}](rc)
	// each ghost may grow to the whole budget minus its actual cache
	c.ghostIdx = cache.NewLRU[chunk.Fingerprint, ghostIndexEntry](c.maxIndexEntries() - ic)
	c.ghostRead = cache.NewGhost[alloc.PBA](c.maxReadBlocks() - rc)
	c.idxRev = probe.NewMap[alloc.PBA, revEntry](0)
	return c
}

// revEntry holds the fingerprints referencing one physical block: the
// first inline (the overwhelmingly common case), the rest in an
// overflow slice allocated only on collision.
type revEntry struct {
	first chunk.Fingerprint
	rest  []chunk.Fingerprint
}

func (c *Controller) maxIndexEntries() int { return int(c.p.TotalBytes) / c.p.IndexEntryBytes }
func (c *Controller) maxReadBlocks() int   { return int(c.p.TotalBytes) / c.p.BlockBytes }

func (c *Controller) capacitiesFor(frac float64) (idxEntries, readBlocks int) {
	idxBytes := int64(frac * float64(c.p.TotalBytes))
	idxEntries = int(idxBytes) / c.p.IndexEntryBytes
	readBlocks = int(c.p.TotalBytes-idxBytes) / c.p.BlockBytes
	if idxEntries < 1 {
		idxEntries = 1
	}
	if readBlocks < 1 {
		readBlocks = 1
	}
	return idxEntries, readBlocks
}

// Index exposes the hot index (for engines and tests).
func (c *Controller) Index() *index.Hot { return c.idx }

// IndexFrac reports the current index-cache share of the budget.
func (c *Controller) IndexFrac() float64 { return c.indexFrac }

// ReadCacheCap reports the read-cache capacity in blocks.
func (c *Controller) ReadCacheCap() int { return c.read.Cap() }

// Repartitions reports how many times the Swap Module resized.
func (c *Controller) Repartitions() int64 { return c.repartitions }

// History returns the partition trajectory: one point per repartition,
// in time order.
func (c *Controller) History() []FracPoint {
	return append([]FracPoint(nil), c.history...)
}

// --- index-cache path ---

// IndexLookup searches the hot index on the default stream.
func (c *Controller) IndexLookup(fp chunk.Fingerprint) (index.Entry, bool) {
	return c.IndexLookupS(0, fp)
}

// IndexLookupS searches the index on behalf of a tenant stream,
// counting a ghost hit on miss (the Access Monitor's signal that a
// larger index cache would have deduplicated this chunk). Outside
// stream mode the stream is ignored.
func (c *Controller) IndexLookupS(stream uint32, fp chunk.Fingerprint) (index.Entry, bool) {
	if c.streamMode {
		return c.streamLookup(stream, fp)
	}
	if e, ok := c.idx.Lookup(fp); ok {
		c.idxHits++
		return e, true
	}
	c.idxMisses++
	if c.p.Adaptive && c.ghostIdx.Contains(fp) {
		c.ghostIdxHits++
		c.totalGhostIdxHits++
	}
	return index.Entry{}, false
}

// IndexPeek reads the hot index without touching recency, hit
// statistics, or the ghost — the global fingerprint tier uses it to
// find a shard's local copy of a fingerprint before a granted hint
// overwrites the binding.
func (c *Controller) IndexPeek(fp chunk.Fingerprint) (index.Entry, bool) {
	if c.streamMode {
		if o, ok := c.fpOwner.Find(fp); ok {
			return c.strs[*o].idx.Peek(fp)
		}
		return index.Entry{}, false
	}
	return c.idx.Peek(fp)
}

// IndexInsert adds fp → pba to the hot index on the default stream.
func (c *Controller) IndexInsert(fp chunk.Fingerprint, pba alloc.PBA) {
	c.IndexInsertS(0, fp, pba)
}

// IndexInsertS adds fp → pba to the index on behalf of a tenant
// stream. In adaptive mode evicted entries move to the ghost index;
// either way the reverse map tracks every live entry for
// purge-on-free. In stream mode the entry lands in (and can only
// evict from) the inserting stream's quota.
func (c *Controller) IndexInsertS(stream uint32, fp chunk.Fingerprint, pba alloc.PBA) {
	if c.streamMode {
		if e, ok := c.IndexPeek(fp); ok && e.PBA == pba {
			return
		}
		c.streamInsert(stream, fp, pba)
		return
	}
	if e, ok := c.idx.Peek(fp); ok && e.PBA == pba {
		return
	}
	c.ghostRemoveFP(fp) // re-admission through the real path
	ev, evicted := c.idx.Insert(fp, pba)
	c.revAdd(pba, fp)
	if evicted {
		if ev.FP == fp {
			// remap of the same fingerprint: drop the old block's link
			c.revRemove(ev.Entry.PBA, fp)
		} else if c.p.Adaptive {
			// victim moves to the ghost; its reverse link stays
			if gev, gevicted := c.ghostIdx.Put(ev.FP, ghostIndexEntry{pba: ev.Entry.PBA}); gevicted {
				c.revRemove(gev.Val.pba, gev.Key)
			}
		} else {
			c.revRemove(ev.Entry.PBA, ev.FP)
		}
	}
}

// --- read-cache path ---

// ReadHit tests whether pba is cached, promoting it on hit and
// consulting the ghost on miss.
func (c *Controller) ReadHit(pba alloc.PBA) bool {
	if _, ok := c.read.Get(pba); ok {
		c.readHits++
		return true
	}
	c.readMisses++
	if c.p.Adaptive && c.ghostRead.Hit(pba) {
		c.ghostReadHits++
		c.totalGhostReadHits++
	}
	return false
}

// ReadInsert caches pba after a fetch from disk.
func (c *Controller) ReadInsert(pba alloc.PBA) {
	if ev, evicted := c.read.Put(pba, struct{}{}); evicted && c.p.Adaptive && ev.Key != pba {
		c.ghostRead.Add(ev.Key)
	}
}

// PurgePBA removes every trace of a freed physical block — read cache,
// read ghost, hot index, and ghost index — so a reused block can never
// serve stale data or be dedup-referenced under its old content.
func (c *Controller) PurgePBA(pba alloc.PBA) {
	c.read.Remove(pba)
	c.ghostRead.Remove(pba)
	if e, ok := c.idxRev.Take(pba); ok {
		c.dropFP(e.first)
		for _, fp := range e.rest {
			c.dropFP(fp)
		}
	}
}

// PurgeWhere drops every cached and ghosted read block whose PBA
// matches pred. The serving layer uses it with a remote-owner predicate
// when a peer shard crashes: a remote read cached under the dead shard's
// canonical must not outlive the block, which the shard's recovery may
// free. The index side needs no such sweep — it only ever binds the
// shard's own blocks, which PurgePBA drops as they are freed.
func (c *Controller) PurgeWhere(pred func(alloc.PBA) bool) {
	var victims []alloc.PBA
	collect := func(pba alloc.PBA) bool {
		if pred(pba) {
			victims = append(victims, pba)
		}
		return true
	}
	c.read.Each(func(pba alloc.PBA, _ struct{}) bool { return collect(pba) })
	c.ghostRead.EachMRU(collect)
	for _, pba := range victims {
		c.read.Remove(pba)
		c.ghostRead.Remove(pba)
	}
}

func (c *Controller) revAdd(pba alloc.PBA, fp chunk.Fingerprint) {
	e, inserted := c.idxRev.Ref(pba)
	if inserted {
		*e = revEntry{first: fp}
		return
	}
	if e.first == fp {
		return
	}
	for _, f := range e.rest {
		if f == fp {
			return
		}
	}
	e.rest = append(e.rest, fp)
}

func (c *Controller) ghostRemoveFP(fp chunk.Fingerprint) {
	if e, ok := c.ghostIdx.Take(fp); ok {
		c.revRemove(e.pba, fp)
	}
}

func (c *Controller) revRemove(pba alloc.PBA, fp chunk.Fingerprint) {
	e, ok := c.idxRev.Find(pba)
	if !ok {
		return
	}
	if e.first == fp {
		if len(e.rest) == 0 {
			c.idxRev.Delete(pba)
			return
		}
		e.first = e.rest[len(e.rest)-1]
		e.rest = e.rest[:len(e.rest)-1]
		return
	}
	for i, f := range e.rest {
		if f == fp {
			e.rest[i] = e.rest[len(e.rest)-1]
			e.rest = e.rest[:len(e.rest)-1]
			return
		}
	}
}

// --- Swap Module ---

// Repartition is the outcome of one evaluation tick.
type Repartition struct {
	Changed      bool
	IndexSwapIns int         // ghost index entries re-admitted on growth
	ReadSwapIns  []alloc.PBA // re-admitted blocks: engine issues background reads
}

// Tick runs the Access Monitor / Swap Module at virtual time now. With
// adaptation disabled, or before the interval elapses, it is a no-op.
func (c *Controller) Tick(now sim.Time) Repartition {
	if !c.p.Adaptive || now < c.nextEval {
		return Repartition{}
	}
	c.nextEval = now.Add(c.p.Interval)

	benefitIdx := c.ghostIdxHits * c.p.WriteBenefitUS
	benefitRead := c.ghostReadHits * c.p.ReadBenefitUS
	c.ghostIdxHits, c.ghostReadHits = 0, 0
	c.idxHits, c.idxMisses, c.readHits, c.readMisses = 0, 0, 0, 0

	// require clear dominance before moving the partition — reacting
	// to noise thrashes both caches (each move costs transient misses
	// and swap I/O)
	const dominance = 1.3
	var target float64
	switch {
	case benefitIdx > 0 && float64(benefitIdx) > dominance*float64(benefitRead):
		target = c.indexFrac + c.p.Step
	case benefitRead > 0 && float64(benefitRead) > dominance*float64(benefitIdx):
		target = c.indexFrac - c.p.Step
	default:
		return Repartition{}
	}
	if target < c.p.MinFrac {
		target = c.p.MinFrac
	}
	if target > 1-c.p.MinFrac {
		target = 1 - c.p.MinFrac
	}
	if target == c.indexFrac {
		return Repartition{}
	}

	grewIndex := target > c.indexFrac
	c.indexFrac = target
	ic, rc := c.capacitiesFor(target)
	rep := Repartition{Changed: true}
	c.repartitions++
	c.history = append(c.history, FracPoint{Time: now, IndexFrac: target})

	// shrink one side; hot-index victims keep their reverse links as
	// they move into the ghost
	c.icEntries = ic
	if c.streamMode {
		c.recomputeStreamCaps()
	} else {
		for _, ev := range c.idx.Resize(ic) {
			if c.p.Adaptive {
				if gev, gevicted := c.ghostIdx.Put(ev.FP, ghostIndexEntry{pba: ev.Entry.PBA}); gevicted {
					c.revRemove(gev.Val.pba, gev.Key)
				}
			} else {
				c.revRemove(ev.Entry.PBA, ev.FP)
			}
		}
	}
	for _, ev := range c.read.Resize(rc) {
		c.ghostRead.Add(ev.Key)
	}
	// rebalance ghost capacities to mirror the actual caches
	for _, gev := range c.ghostIdx.Resize(c.maxIndexEntries() - ic) {
		c.revRemove(gev.Val.pba, gev.Key)
	}
	c.ghostRead.Resize(c.maxReadBlocks() - rc)

	// grow the other side by swapping in the most recent ghosts
	if grewIndex {
		if c.streamMode {
			rep.IndexSwapIns = c.streamSwapIns()
		} else {
			room := ic - c.idx.Len()
			var fps []chunk.Fingerprint
			var pbas []alloc.PBA
			c.ghostIdx.Each(func(fp chunk.Fingerprint, e ghostIndexEntry) bool {
				if len(fps) >= room {
					return false
				}
				fps = append(fps, fp)
				pbas = append(pbas, e.pba)
				return true
			})
			for i, fp := range fps {
				c.ghostRemoveFP(fp)
				c.idx.Insert(fp, pbas[i])
				c.revAdd(pbas[i], fp)
				rep.IndexSwapIns++
				c.swapInsIdx++
			}
		}
	} else {
		room := rc - c.read.Len()
		// ghost read keeps only keys; re-admit the most recent ones
		var pbas []alloc.PBA
		c.ghostRead.EachMRU(func(pba alloc.PBA) bool {
			if len(pbas) >= room {
				return false
			}
			pbas = append(pbas, pba)
			return true
		})
		for _, pba := range pbas {
			c.ghostRead.Remove(pba)
			c.read.Put(pba, struct{}{})
			rep.ReadSwapIns = append(rep.ReadSwapIns, pba)
			c.swapInsRd++
		}
	}
	return rep
}

// CheckInvariants verifies the budget is never exceeded, the index side
// (hot or ghost) binds only local blocks — a tier hint lives in the
// tier's own table — and ghosts hold no live entries; in stream mode it
// additionally audits the owner directory and per-stream quotas.
// Exposed for property tests.
func (c *Controller) CheckInvariants() error {
	idxBytes := int64(c.IndexCapTotal()) * int64(c.p.IndexEntryBytes)
	readBytes := int64(c.read.Cap()) * int64(c.p.BlockBytes)
	slack := int64(c.p.IndexEntryBytes) + int64(c.p.BlockBytes) // integer division slack
	if idxBytes+readBytes > c.p.TotalBytes+slack {
		return fmt.Errorf("icache: partition exceeds budget: %d + %d > %d", idxBytes, readBytes, c.p.TotalBytes)
	}
	var remote error
	c.idxRev.Each(func(pba alloc.PBA, _ revEntry) bool {
		if alloc.IsRemote(pba) {
			remote = fmt.Errorf("icache: index binds remote-encoded block %d", pba)
		}
		return remote == nil
	})
	if remote != nil {
		return remote
	}
	if c.streamMode {
		return c.checkStreamInvariants()
	}
	violation := ""
	c.idx.Each(func(fp chunk.Fingerprint, _ index.Entry) bool {
		if c.ghostIdx.Contains(fp) {
			violation = "fingerprint live in both index cache and ghost"
			return false
		}
		return true
	})
	if violation != "" {
		return fmt.Errorf("icache: %s", violation)
	}
	return nil
}
