package icache

import "github.com/pod-dedup/pod/internal/metrics"

// Instrument publishes the controller's partition state and the Access
// Monitor's lifetime accounting into reg as live gauges — the telemetry
// behind the paper's Fig. 9 iCache-adaptation analysis: partition sizes
// on both sides, ghost-cache hit totals (the adaptation signal), and
// the swap traffic repartitioning causes. The engine re-calls it after
// crash recovery rebuilds the caches.
func (c *Controller) Instrument(reg *metrics.Registry) {
	reg.GaugeFunc("icache_index_entries", func() int64 { return int64(c.dir.live()) })
	reg.GaugeFunc("icache_index_cap", func() int64 { return int64(c.icEntries) })
	reg.GaugeFunc("icache_ghost_index_entries", func() int64 { return int64(c.dir.lists[ghostList].n) })
	reg.GaugeFunc("icache_index_dir_bytes", func() int64 { return int64(c.dir.bytes()) })
	reg.GaugeFunc("icache_read_blocks", func() int64 { return int64(c.dir.lists[readList].n) })
	reg.GaugeFunc("icache_read_cap", func() int64 { return int64(c.ReadCacheCap()) })
	reg.GaugeFunc("icache_index_frac_permille", func() int64 { return int64(c.indexFrac * 1000) })
	reg.GaugeFunc("icache_repartitions", func() int64 { return c.repartitions })
	reg.GaugeFunc("icache_ghost_index_hits_total", func() int64 { return c.totalGhostIdxHits })
	reg.GaugeFunc("icache_ghost_read_hits_total", func() int64 { return c.totalGhostReadHits })
	reg.GaugeFunc("icache_swapins_index", func() int64 { return c.swapInsIdx })
	reg.GaugeFunc("icache_swapins_read", func() int64 { return c.swapInsRd })
	if c.streamMode {
		// hit accounting is per stream, registered lazily as streams appear
		c.streamReg = reg
		for k := range c.acct {
			c.instrumentStream(int32(k) + firstIndexList)
		}
		return
	}
	reg.GaugeFunc("index_hot_hits", func() int64 { return c.acct[0].hits })
	reg.GaugeFunc("index_hot_misses", func() int64 { return c.acct[0].lookups - c.acct[0].hits })
}
