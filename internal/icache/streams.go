package icache

import (
	"strconv"

	"github.com/pod-dedup/pod/internal/metrics"
)

// Stream mode (HPDedup-style apportionment). When enabled, the index
// partition is divided into per-stream quotas: each tenant stream owns
// one recency list of the fingerprint directory, capped at its share of
// the partition, so one stream's insertions can only evict its own
// entries — a low-locality stream can no longer pollute a high-locality
// neighbour's quota. Nothing else is per stream: lookups probe the one
// directory (any stream may hit any entry; only eviction is
// partitioned), the ghost and the fingerprint buckets are shared, and a
// ghost entry remembers its home list for swap-in re-admission. The classic
// single index is the same thing with one list holding a share of 1.
//
// Shares come either from a fixed static split or from a periodic
// locality-driven apportioner (engine.Base drives internal/locality and
// calls SetStreamShares). Until the first apportionment, active streams
// split the partition equally. The adaptive iCache partition (index vs
// read cache) composes: when the Swap Module moves the boundary, the
// per-stream capacities are recomputed against the new index budget.

// streamAcct is the accounting for one index list — a stream's, or the
// single index's — for gauges and verdicts; acct[k] goes with list
// firstIndexList+k.
type streamAcct struct {
	id uint32
	// ghostHits counts lookups, by any stream, that found one of this
	// stream's entries in the ghost: a larger quota would have
	// deduplicated them.
	lookups, hits, ghostHits int64
}

// streamState holds the controller's stream-mode fields; embedded so
// the zero value keeps the classic single-index mode.
type streamState struct {
	streamMode bool
	strs       map[uint32]int32 // stream → its index list
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
	if c.dir.byFP.keys+c.dir.byPBA.keys > 0 {
		panic("icache: EnableStreams on a used controller")
	}
	c.streamMode = true
	gi, gr := c.ghostCaps(c.icEntries, c.ReadCacheCap())
	c.dir = newDirectory(gi, c.ReadCacheCap(), gr)
	c.acct = nil
	c.strs = make(map[uint32]int32)
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
	if c.shares == nil {
		c.shares = make(map[uint32]float64, len(shares))
	}
	clear(c.shares)
	for id, s := range shares {
		c.shares[id] = s
	}
	c.applyQuotas()
}

// shareOf reports the share of the index partition currently granted to
// stream id.
func (c *Controller) shareOf(id uint32) float64 {
	switch {
	case !c.streamMode:
		return 1
	case c.staticShares != nil:
		return c.staticShares[id]
	case c.shares != nil:
		return c.shares[id]
	}
	return 1.0 / float64(len(c.acct))
}

func (c *Controller) streamCapFor(id uint32) int {
	return int(c.shareOf(id) * float64(c.icEntries))
}

// listFor returns the index list stream's insertions land in, creating
// it on first sight.
func (c *Controller) listFor(stream uint32) int32 {
	if !c.streamMode {
		return firstIndexList
	}
	if l, ok := c.strs[stream]; ok {
		return l
	}
	l := c.dir.addList(0, ghostList)
	c.strs[stream] = l
	c.acct = append(c.acct, streamAcct{id: stream})
	if c.staticShares == nil && c.shares == nil {
		// equal-split startup: a new stream changes everyone's share
		c.applyQuotas()
	} else {
		c.dir.resize(l, c.streamCapFor(stream))
	}
	if c.streamReg != nil {
		c.instrumentStream(l)
	}
	return l
}

// applyQuotas resizes every index list to its current share of the
// index partition, in first-seen order; shrink victims move to the
// ghost (adaptive) or are dropped.
func (c *Controller) applyQuotas() {
	for k := range c.acct {
		c.dir.resize(int32(k)+firstIndexList, c.streamCapFor(c.acct[k].id))
	}
}

// IndexCapTotal reports the index partition budget in entries — the
// index cache's capacity in classic mode, the sum available to all
// streams in stream mode. Engines size fingerprint tables off this.
func (c *Controller) IndexCapTotal() int { return c.icEntries }

// instrumentStream registers the quota and hit gauges of the stream
// that owns list l.
func (c *Controller) instrumentStream(l int32) {
	k := l - firstIndexList
	label := strconv.FormatUint(uint64(c.acct[k].id), 10)
	reg := c.streamReg
	reg.GaugeFunc(metrics.Labeled("icache_stream_quota", "stream", label),
		func() int64 { return int64(c.dir.lists[l].cap) })
	reg.GaugeFunc(metrics.Labeled("icache_stream_entries", "stream", label),
		func() int64 { return int64(c.dir.lists[l].n) })
	reg.GaugeFunc(metrics.Labeled("icache_stream_lookups", "stream", label),
		func() int64 { return c.acct[k].lookups })
	reg.GaugeFunc(metrics.Labeled("icache_stream_hits", "stream", label),
		func() int64 { return c.acct[k].hits })
	reg.GaugeFunc(metrics.Labeled("icache_stream_ghost_hits", "stream", label),
		func() int64 { return c.acct[k].ghostHits })
}
