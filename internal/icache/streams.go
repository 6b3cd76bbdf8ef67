package icache

import (
	"fmt"
	"strconv"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/index"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/probe"
)

// Stream mode (HPDedup-style apportionment). When enabled, the index
// partition is divided into per-stream sub-indexes: each tenant stream
// owns an index.Hot sized to its share of the partition, so one
// stream's insertions can only evict its own entries — a low-locality
// stream can no longer pollute a high-locality neighbour's quota. A
// fingerprint→stream owner directory resolves lookups (any stream may
// hit any entry; only eviction is partitioned), and the shared ghost
// index and reverse map work exactly as in the single-index mode, with
// ghost entries remembering their stream for swap-in re-admission.
//
// Shares come either from a fixed static split or from a periodic
// locality-driven apportioner (engine.Base drives internal/locality and
// calls SetStreamShares). Until the first apportionment, active streams
// split the partition equally. The adaptive iCache partition (index vs
// read cache) composes: when the Swap Module moves the boundary, the
// per-stream capacities are recomputed against the new index budget.

// subIdx is one stream's slice of the index partition.
type subIdx struct {
	id    uint32
	idx   *index.Hot
	share float64 // share in force (0 = unassigned / equal-split)
	// lifetime accounting for gauges and verdicts
	lookups, hits int64
}

// streamState holds the controller's stream-mode fields; embedded so
// the zero value keeps the classic single-index mode.
type streamState struct {
	streamMode bool
	// icEntries is the index partition budget in entries, updated by
	// the Swap Module; per-stream capacities are shares of it.
	icEntries int
	strs      map[uint32]*subIdx
	strOrder  []uint32 // first-seen order, for deterministic iteration
	fpOwner   *probe.Map[chunk.Fingerprint, uint32]
	// staticShares, when non-nil, fixes the split for the controller's
	// lifetime; otherwise SetStreamShares applies dynamic shares.
	staticShares map[uint32]float64
	shares       map[uint32]float64 // dynamic shares in force (nil = equal split)
	streamReg    *metrics.Registry  // lazy per-stream gauge registration
}

// EnableStreams switches the controller into per-stream apportionment
// mode. static, when non-nil, fixes each stream's share of the index
// partition permanently (streams absent from the map get no quota);
// when nil, shares are dynamic — equal split until SetStreamShares is
// called. Must be called on a fresh controller.
func (c *Controller) EnableStreams(static map[uint32]float64) {
	if c.idx.Len() > 0 {
		panic("icache: EnableStreams on a used controller")
	}
	c.streamMode = true
	c.strs = make(map[uint32]*subIdx)
	c.fpOwner = probe.NewMap[chunk.Fingerprint, uint32](0)
	if static != nil {
		c.staticShares = make(map[uint32]float64, len(static))
		for id, s := range static {
			c.staticShares[id] = s
		}
	}
}

// SetStreamShares applies dynamically apportioned shares (stream →
// fraction of the index partition, summing to ≤ 1). Streams absent from
// the map get no quota until the next call. No-op under a static split.
func (c *Controller) SetStreamShares(shares map[uint32]float64) {
	if !c.streamMode || c.staticShares != nil {
		return
	}
	cp := make(map[uint32]float64, len(shares))
	for id, s := range shares {
		cp[id] = s
	}
	c.shares = cp
	c.recomputeStreamCaps()
}

// shareOf reports the share of the index partition currently granted to
// stream id.
func (c *Controller) shareOf(id uint32) float64 {
	if c.staticShares != nil {
		return c.staticShares[id]
	}
	if c.shares != nil {
		return c.shares[id]
	}
	if n := len(c.strOrder); n > 0 {
		return 1.0 / float64(n)
	}
	return 0
}

func (c *Controller) streamCapFor(id uint32) int {
	return int(c.shareOf(id) * float64(c.icEntries))
}

// getSub returns (creating on first sight) the sub-index for stream id.
func (c *Controller) getSub(id uint32) *subIdx {
	if s, ok := c.strs[id]; ok {
		return s
	}
	s := &subIdx{id: id, idx: index.NewHot(0)}
	c.strs[id] = s
	c.strOrder = append(c.strOrder, id)
	if c.staticShares == nil && c.shares == nil {
		// equal-split startup: a new stream changes everyone's share
		c.recomputeStreamCaps()
	} else {
		s.idx.Resize(c.streamCapFor(id))
	}
	if c.streamReg != nil {
		c.instrumentStream(s)
	}
	return s
}

// recomputeStreamCaps resizes every sub-index to its current share of
// the index partition; shrink victims move to the ghost (adaptive) or
// are dropped, exactly as single-index resizes do.
func (c *Controller) recomputeStreamCaps() {
	for _, id := range c.strOrder {
		s := c.strs[id]
		for _, ev := range s.idx.Resize(c.streamCapFor(id)) {
			c.fpOwner.Delete(ev.FP)
			if c.p.Adaptive {
				if gev, gevicted := c.ghostIdx.Put(ev.FP, ghostIndexEntry{pba: ev.Entry.PBA, stream: id}); gevicted {
					c.revRemove(gev.Val.pba, gev.Key)
				}
			} else {
				c.revRemove(ev.Entry.PBA, ev.FP)
			}
		}
	}
}

// streamLookup is IndexLookupS in stream mode. The lookup is attributed
// to the requesting stream; the hit may come from any stream's
// sub-index (the index is still one logical directory — only eviction
// is partitioned).
func (c *Controller) streamLookup(stream uint32, fp chunk.Fingerprint) (index.Entry, bool) {
	s := c.getSub(stream)
	s.lookups++
	if owner, ok := c.fpOwner.Find(fp); ok {
		if e, ok2 := c.strs[*owner].idx.Lookup(fp); ok2 {
			c.idxHits++
			s.hits++
			return e, true
		}
	}
	c.idxMisses++
	if c.p.Adaptive && c.ghostIdx.Contains(fp) {
		c.ghostIdxHits++
		c.totalGhostIdxHits++
	}
	return index.Entry{}, false
}

// streamInsert is IndexInsertS in stream mode. A fingerprint already
// owned by another stream is updated in place (ownership sticks to the
// first inserter); a fresh fingerprint lands in the inserting stream's
// sub-index, evicting only that stream's own entries. A stream with no
// quota gets nothing cached — bgdedup catches what inline then skips.
func (c *Controller) streamInsert(stream uint32, fp chunk.Fingerprint, pba alloc.PBA) {
	if owner, ok := c.fpOwner.Find(fp); ok {
		o := c.strs[*owner]
		ev, evicted := o.idx.Insert(fp, pba)
		if evicted { // remap of an existing fingerprint (self-eviction)
			c.revAdd(pba, fp)
			c.revRemove(ev.Entry.PBA, fp)
		}
		return
	}
	c.ghostRemoveFP(fp) // re-admission through the real path
	s := c.getSub(stream)
	if s.idx.Cap() == 0 {
		return
	}
	ev, evicted := s.idx.Insert(fp, pba)
	c.fpOwner.Put(fp, stream)
	c.revAdd(pba, fp)
	if evicted {
		c.fpOwner.Delete(ev.FP)
		if c.p.Adaptive {
			if gev, gevicted := c.ghostIdx.Put(ev.FP, ghostIndexEntry{pba: ev.Entry.PBA, stream: stream}); gevicted {
				c.revRemove(gev.Val.pba, gev.Key)
			}
		} else {
			c.revRemove(ev.Entry.PBA, ev.FP)
		}
	}
}

// streamSwapIns re-admits ghost entries into their streams' sub-indexes
// after the Swap Module grows the index partition, bounded by each
// stream's free quota.
func (c *Controller) streamSwapIns() int {
	room := make(map[uint32]int, len(c.strs))
	total := 0
	for _, id := range c.strOrder {
		s := c.strs[id]
		if r := s.idx.Cap() - s.idx.Len(); r > 0 {
			room[id] = r
			total += r
		}
	}
	if total == 0 {
		return 0
	}
	var fps []chunk.Fingerprint
	var pbas []alloc.PBA
	var owners []uint32
	c.ghostIdx.Each(func(fp chunk.Fingerprint, e ghostIndexEntry) bool {
		if room[e.stream] <= 0 {
			return total > 0
		}
		room[e.stream]--
		total--
		fps = append(fps, fp)
		pbas = append(pbas, e.pba)
		owners = append(owners, e.stream)
		return total > 0
	})
	for i, fp := range fps {
		c.ghostRemoveFP(fp)
		s := c.strs[owners[i]]
		s.idx.Insert(fp, pbas[i])
		c.fpOwner.Put(fp, owners[i])
		c.revAdd(pbas[i], fp)
		c.swapInsIdx++
	}
	return len(fps)
}

// dropFP removes a fingerprint from whichever index holds it (hot or
// per-stream) and from the ghost; reverse links are the caller's
// responsibility.
func (c *Controller) dropFP(fp chunk.Fingerprint) {
	if c.streamMode {
		if o, ok := c.fpOwner.Find(fp); ok {
			c.strs[*o].idx.Remove(fp)
			c.fpOwner.Delete(fp)
		}
	} else {
		c.idx.Remove(fp)
	}
	c.ghostIdx.Remove(fp)
}

// indexLen reports live index entries across modes.
func (c *Controller) indexLen() int {
	if !c.streamMode {
		return c.idx.Len()
	}
	n := 0
	for _, id := range c.strOrder {
		n += c.strs[id].idx.Len()
	}
	return n
}

// IndexCapTotal reports the index partition budget in entries — the
// hot index capacity in classic mode, the sum available to all streams
// in stream mode. Engines size fingerprint tables off this.
func (c *Controller) IndexCapTotal() int {
	if c.streamMode {
		return c.icEntries
	}
	return c.idx.Cap()
}

// StreamQuota snapshots one stream's quota and hit accounting.
type StreamQuota struct {
	Stream        uint32
	Share         float64
	Cap, Len      int
	Lookups, Hits int64
}

// StreamQuotas snapshots every stream in first-seen order (nil when
// stream mode is off).
func (c *Controller) StreamQuotas() []StreamQuota {
	if !c.streamMode {
		return nil
	}
	out := make([]StreamQuota, 0, len(c.strOrder))
	for _, id := range c.strOrder {
		s := c.strs[id]
		out = append(out, StreamQuota{
			Stream: id, Share: c.shareOf(id),
			Cap: s.idx.Cap(), Len: s.idx.Len(),
			Lookups: s.lookups, Hits: s.hits,
		})
	}
	return out
}

// instrumentStream registers one stream's quota and hit gauges.
func (c *Controller) instrumentStream(s *subIdx) {
	label := strconv.FormatUint(uint64(s.id), 10)
	reg := c.streamReg
	reg.GaugeFunc(metrics.Labeled("icache_stream_quota", "stream", label),
		func() int64 { return int64(s.idx.Cap()) })
	reg.GaugeFunc(metrics.Labeled("icache_stream_entries", "stream", label),
		func() int64 { return int64(s.idx.Len()) })
	reg.GaugeFunc(metrics.Labeled("icache_stream_lookups", "stream", label),
		func() int64 { return s.lookups })
	reg.GaugeFunc(metrics.Labeled("icache_stream_hits", "stream", label),
		func() int64 { return s.hits })
}

// checkStreamInvariants extends CheckInvariants for stream mode.
func (c *Controller) checkStreamInvariants() error {
	capSum, lenSum := 0, 0
	for _, id := range c.strOrder {
		s := c.strs[id]
		capSum += s.idx.Cap()
		lenSum += s.idx.Len()
		var violation string
		s.idx.Each(func(fp chunk.Fingerprint, _ index.Entry) bool {
			if o, ok := c.fpOwner.Find(fp); !ok || *o != id {
				violation = "sub-index entry not registered to its owner stream"
				return false
			}
			if c.ghostIdx.Contains(fp) {
				violation = "fingerprint live in both a stream sub-index and the ghost"
				return false
			}
			return true
		})
		if violation != "" {
			return fmt.Errorf("icache: stream %d: %s", id, violation)
		}
	}
	if capSum > c.icEntries+len(c.strOrder) { // +rounding slack per stream
		return fmt.Errorf("icache: stream quotas %d exceed index partition %d", capSum, c.icEntries)
	}
	if c.fpOwner.Len() != lenSum {
		return fmt.Errorf("icache: owner directory has %d entries, sub-indexes hold %d", c.fpOwner.Len(), lenSum)
	}
	return nil
}
