// Package icache implements POD's intelligent cache manager (§III-C):
// the adaptive partitioning of a fixed DRAM budget between the
// fingerprint index cache and the data read cache.
//
// The controller owns both actual caches and their metadata-only ghost
// caches, all of them recency lists of one directory (directory.go): the
// index cache (in stream mode, one list per tenant stream's quota) and
// the ghost index hold fingerprint slots, found through the fingerprint
// buckets; the read cache and the read ghost hold block slots, found
// through the block buckets. Whether an entry is cached, under whose
// quota, or only remembered is which list its slot is linked into, so
// eviction, swap-in and re-apportionment relink slots and never rehash
// them. A freed block leaves the read side by its block (PurgePBA) and
// the index by its content (ForgetIndex).
//
// The Access Monitor counts, per evaluation interval, how often a miss
// in an actual cache *would have been* a hit with a larger cache (a
// ghost hit). The Swap Module then compares the cost-benefit of the two
// ghosts — ghost hits weighted by the I/O time each kind of hit saves —
// and repartitions the budget toward the cache whose growth pays more,
// swapping the most recent ghost entries back in. Swapped-in read
// blocks must be fetched from the back-end store, so the controller
// surfaces them to the engine, which charges background disk reads.
//
// With adaptation disabled the controller degrades to the fixed
// partition used by the paper's Full-Dedupe / iDedup / Select-Dedupe
// configurations (§IV-B: "equal spaces to the index cache and read
// cache"), keeping every engine on one code path.
package icache

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

// Params configures the controller.
type Params struct {
	TotalBytes      int64        // the DRAM budget to split
	IndexEntryBytes int          // in-memory footprint of one index entry
	IndexFrac       float64      // initial index-cache share (0,1)
	Adaptive        bool         // enable iCache adaptation
	Interval        sim.Duration // evaluation interval (virtual time)
}

// The Swap Module's fixed terms: no experiment varies them.
const (
	// blockBytes is the footprint of one cached data block.
	blockBytes = chunk.Size
	// minFrac is the lower bound on either cache's share of the budget.
	minFrac = 0.25
	// step is the share of the budget moved per repartition.
	step = 0.0625
	// An avoided duplicate write saves a RAID5 read-modify-write (two
	// serialized disk phases); an avoided read miss saves one disk
	// access — hence the 2:1 weighting of the two ghosts' hits.
	writeBenefitUS = 16000
	readBenefitUS  = 8000
)

// DefaultParams returns the configuration used by the experiments: a
// 50/50 initial split held fixed, 64-byte index entries and a 250 ms
// evaluation interval.
func DefaultParams(totalBytes int64) Params {
	return Params{
		TotalBytes:      totalBytes,
		IndexEntryBytes: 64,
		IndexFrac:       0.5,
		Adaptive:        false,
		Interval:        250 * sim.Millisecond,
	}
}

// Controller manages the partitioned storage cache.
type Controller struct {
	p Params

	streamState

	// dir holds both caches and both ghosts: the index cache (one
	// recency list, or one per stream), the ghost index, the read cache
	// and the read ghost; acct[k] is the accounting for index list
	// firstIndexList+k, streams in first-seen order.
	dir  directory
	acct []streamAcct
	// icEntries is the index partition budget in entries, moved by the
	// Swap Module; every index list's capacity is a share of it.
	icEntries int

	indexFrac float64
	nextEval  sim.Time

	// Access Monitor counters for the current interval.
	ghostIdxHits, ghostReadHits int64

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
	if p.IndexEntryBytes <= 0 {
		panic("icache: non-positive index entry size")
	}
	if p.IndexFrac <= 0 || p.IndexFrac >= 1 {
		panic(fmt.Sprintf("icache: index fraction %f out of (0,1)", p.IndexFrac))
	}
	c := &Controller{p: p, indexFrac: p.IndexFrac, nextEval: sim.Time(p.Interval)}
	ic, rc := c.capacitiesFor(p.IndexFrac)
	c.icEntries = ic
	gi, gr := c.ghostCaps(ic, rc)
	c.dir = newDirectory(gi, rc, gr)
	c.acct = []streamAcct{{}}
	c.dir.addList(ic, ghostList)
	return c
}

// ghostCaps reports the ghost index's and the read ghost's capacities
// for a partition of ic index entries and rc read blocks: each ghost may
// grow to the whole budget minus its actual cache. The fixed partition
// never consults a ghost and keeps none.
func (c *Controller) ghostCaps(ic, rc int) (idx, read int) {
	if !c.p.Adaptive {
		return 0, 0
	}
	return int(c.p.TotalBytes)/c.p.IndexEntryBytes - ic, int(c.p.TotalBytes)/blockBytes - rc
}

func (c *Controller) capacitiesFor(frac float64) (idxEntries, readBlocks int) {
	idxBytes := int64(frac * float64(c.p.TotalBytes))
	idxEntries = int(idxBytes) / c.p.IndexEntryBytes
	readBlocks = int(c.p.TotalBytes-idxBytes) / blockBytes
	if idxEntries < 1 {
		idxEntries = 1
	}
	if readBlocks < 1 {
		readBlocks = 1
	}
	return idxEntries, readBlocks
}

// ReadCacheCap reports the read-cache capacity in blocks.
func (c *Controller) ReadCacheCap() int { return c.dir.lists[readList].cap }

// History returns the partition trajectory: one point per repartition,
// in time order.
func (c *Controller) History() []FracPoint {
	return append([]FracPoint(nil), c.history...)
}

// --- index-cache path ---

// Entry is a hit in the hot index: the block holding the fingerprint's
// content.
type Entry struct {
	PBA alloc.PBA
}

// IndexLookup searches the hot index on the default stream.
func (c *Controller) IndexLookup(fp chunk.Fingerprint) (Entry, bool) {
	return c.IndexLookupS(0, fp)
}

// IndexLookupS searches the index on behalf of a tenant stream,
// counting a ghost hit on miss (the Access Monitor's signal that a
// larger index cache would have deduplicated this chunk). The lookup is
// attributed to the requesting stream; the hit may come from any
// stream's quota — the index is one directory and only eviction is
// partitioned. Outside stream mode the stream is ignored.
func (c *Controller) IndexLookupS(stream uint32, fp chunk.Fingerprint) (Entry, bool) {
	a := &c.acct[c.listFor(stream)-firstIndexList]
	a.lookups++
	i := c.dir.find(fp)
	if i == 0 {
		return Entry{}, false
	}
	if s := c.dir.at(i); s.list == ghostList {
		c.ghostIdxHits++
		c.totalGhostIdxHits++
		c.acct[s.home-firstIndexList].ghostHits++
		return Entry{}, false
	}
	a.hits++
	c.dir.promote(i)
	return c.dir.entry(i), true
}

// Warm prepares lookups of fps, a batch already in hand: it loads,
// changing nothing — not recency, not a counter —, the directory words
// each lookup or peek will read first, so that their cache misses
// overlap. Call it just before the per-fingerprint loop.
func (c *Controller) Warm(fps []chunk.Fingerprint) { c.dir.warm(fps) }

// IndexInsert adds fp → pba to the hot index on the default stream.
func (c *Controller) IndexInsert(fp chunk.Fingerprint, pba alloc.PBA) {
	c.IndexInsertS(0, fp, pba)
}

// IndexInsertS adds fp → pba to the index on behalf of a tenant
// stream. A cached fingerprint is remapped where it is — in stream mode
// its quota stays the first inserter's — and promoted; a fresh one, or
// one the ghost remembers, lands in (and can only evict from) the
// inserting stream's quota. In adaptive mode evicted entries move to
// the ghost index. A stream with no quota gets nothing cached — bgdedup
// catches what inline then skips.
func (c *Controller) IndexInsertS(stream uint32, fp chunk.Fingerprint, pba alloc.PBA) {
	d := &c.dir
	i := d.find(fp)
	if i != 0 {
		s := d.at(i)
		if s.list != ghostList {
			if s.pba != pba {
				d.unlink(i)
				d.admit(s.home, i, pba)
			}
			return
		}
		// re-admission through the real path: the entry leaves the ghost
		// before a first-seen stream below may re-divide every quota and
		// push victims into it
		d.unlink(i)
	}
	l := c.listFor(stream)
	lst := &d.lists[l]
	switch {
	case lst.cap == 0:
		if i != 0 {
			d.release(i)
		}
		return
	case i != 0:
		d.admit(l, i, pba)
	default:
		d.pushFront(l, d.take(l, fp, pba))
	}
	if lst.n > lst.cap {
		d.evictTail(l)
	}
}

// --- read-cache path ---

// ReadHit tests whether pba is cached, promoting it on hit; a miss the
// read ghost remembers is a ghost hit, and the block leaves the ghost.
func (c *Controller) ReadHit(pba alloc.PBA) bool {
	d := &c.dir
	if i := d.holding(readList, pba); i != 0 {
		d.promote(i)
		return true
	}
	if i := d.holding(readGhostList, pba); i != 0 {
		d.unlink(i)
		d.release(i)
		c.ghostReadHits++
		c.totalGhostReadHits++
	}
	return false
}

// ReadInsert caches pba after a fetch from disk; in adaptive mode the
// block it evicts moves to the read ghost. A ghost entry for pba itself
// stays where it is.
func (c *Controller) ReadInsert(pba alloc.PBA) {
	d := &c.dir
	if i := d.holding(readList, pba); i != 0 {
		d.promote(i)
		return
	}
	d.pushFront(readList, d.take(readList, chunk.Fingerprint{}, pba))
	if lst := &d.lists[readList]; lst.n > lst.cap {
		d.evictTail(readList)
	}
}

// PurgePBA drops a freed physical block from the read cache and the
// read ghost, in one walk of its block bucket, so a reused block can
// never serve stale data. Its index entry leaves by content
// (ForgetIndex).
func (c *Controller) PurgePBA(pba alloc.PBA) {
	c.dir.purge(pba)
}

// ForgetIndex drops fp's index entry, cached or ghosted, if it binds
// pba, so a reused block can never be dedup-referenced under its old
// content. The caller frees pba and passes the fingerprint of what it
// held: an index entry only ever binds a block holding its
// fingerprint's content, so no other entry can bind it.
func (c *Controller) ForgetIndex(fp chunk.Fingerprint, pba alloc.PBA) {
	c.dir.forget(fp, pba)
}

// CheckIndex calls valid for every index entry, cached or ghosted, and
// returns the first error it reports: the engine's audit that each
// binds a live block holding its fingerprint's content, which
// ForgetIndex relies on.
func (c *Controller) CheckIndex(valid func(chunk.Fingerprint, alloc.PBA) error) error {
	for i := int32(1); i < c.dir.n; i++ {
		if s := c.dir.at(i); s.list != 0 && s.hashed() {
			if err := valid(s.fp, s.pba); err != nil {
				return err
			}
		}
	}
	return nil
}

// PurgeWhere drops every cached and ghosted read block whose PBA
// matches pred. The serving layer uses it with a remote-owner predicate
// when a peer shard crashes: a remote read cached under the dead shard's
// canonical must not outlive the block, which the shard's recovery may
// free. The index side needs no such sweep — it only ever binds the
// shard's own blocks, which leave it by content as they are freed.
func (c *Controller) PurgeWhere(pred func(alloc.PBA) bool) {
	d := &c.dir
	for _, l := range [...]int32{readList, readGhostList} {
		h := d.lists[l].head
		for i := d.at(h).next; i != h; {
			next := d.at(i).next
			if pred(d.at(i).pba) {
				d.unlink(i)
				d.release(i)
			}
			i = next
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

	benefitIdx := c.ghostIdxHits * writeBenefitUS
	benefitRead := c.ghostReadHits * readBenefitUS
	c.ghostIdxHits, c.ghostReadHits = 0, 0

	// require clear dominance before moving the partition — reacting
	// to noise thrashes both caches (each move costs transient misses
	// and swap I/O)
	const dominance = 1.3
	var target float64
	switch {
	case benefitIdx > 0 && float64(benefitIdx) > dominance*float64(benefitRead):
		target = c.indexFrac + step
	case benefitRead > 0 && float64(benefitRead) > dominance*float64(benefitIdx):
		target = c.indexFrac - step
	default:
		return Repartition{}
	}
	if target < minFrac {
		target = minFrac
	}
	if target > 1-minFrac {
		target = 1 - minFrac
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

	// shrink one side: victims move into its ghost, oldest first,
	// against the ghost's old capacity
	c.icEntries = ic
	c.applyQuotas()
	d := &c.dir
	d.resize(readList, rc)
	// rebalance ghost capacities to mirror the actual caches
	gi, gr := c.ghostCaps(ic, rc)
	d.resize(ghostList, gi)
	d.resize(readGhostList, gr)

	// grow the other side by swapping in the most recent ghosts
	if grewIndex {
		rep.IndexSwapIns = d.swapIn(ghostList)
		c.swapInsIdx += int64(rep.IndexSwapIns)
		return rep
	}
	n := d.swapIn(readGhostList)
	c.swapInsRd += int64(n)
	// the re-admitted blocks head the read list, the last chosen first
	rep.ReadSwapIns = make([]alloc.PBA, n)
	for i, k := d.at(d.lists[readList].head).next, n-1; k >= 0; i, k = d.at(i).next, k-1 {
		rep.ReadSwapIns[k] = d.at(i).pba
	}
	return rep
}

// CheckInvariants verifies the budget is never exceeded, the stream
// quotas fit the index partition, and the directory is structurally
// sound (directory.check). Exposed for property tests.
func (c *Controller) CheckInvariants() error {
	idxBytes := int64(c.icEntries) * int64(c.p.IndexEntryBytes)
	readBytes := int64(c.ReadCacheCap()) * blockBytes
	slack := int64(c.p.IndexEntryBytes) + blockBytes // integer division slack
	if idxBytes+readBytes > c.p.TotalBytes+slack {
		return fmt.Errorf("icache: partition exceeds budget: %d + %d > %d", idxBytes, readBytes, c.p.TotalBytes)
	}
	capSum := 0
	for _, lst := range c.dir.lists[firstIndexList:] {
		capSum += lst.cap
	}
	if capSum > c.icEntries+len(c.acct) { // +rounding slack per stream
		return fmt.Errorf("icache: stream quotas %d exceed index partition %d", capSum, c.icEntries)
	}
	if len(c.acct) != len(c.dir.lists)-firstIndexList {
		return fmt.Errorf("icache: %d streams over %d index lists", len(c.acct), len(c.dir.lists)-firstIndexList)
	}
	return c.dir.check()
}
