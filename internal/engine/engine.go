// Package engine is the storage engine of this repository: the Engine
// interface the replayer drives and its one implementation, Pipeline —
// the Base substrate (array + allocator + map table + partitioned
// cache + content model), the request walk every scheme shares, and
// the Policy that makes it one scheme or another — plus per-engine
// statistics.
//
// All schemes are log-structured above the RAID array: a write
// request's non-deduplicated chunks are placed in freshly allocated
// contiguous physical extents, and a physical block whose last
// reference disappears returns to the allocator. The Native policy
// is the exception — it writes in place at identity addresses, exactly
// like the plain HDD system the paper normalizes against.
package engine

import (
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
)

// Engine is a storage scheme under evaluation. The replayer calls
// Write/Read in arrival-time order; each returns the simulated user
// response time of the request plus a typed error when the storage
// stack could not absorb an injected fault (fault.IsTransient
// distinguishes retryable failures; the duration is the virtual time
// spent before failing, which retry accounting must still charge).
type Engine interface {
	// Name identifies the scheme ("Native", "Full-Dedupe", "iDedup",
	// "Select-Dedupe", "POD").
	Name() string
	// Write services a write request arriving at req.Time. A failed
	// write is not applied: no mapping or content change is visible.
	Write(req *trace.Request) (sim.Duration, error)
	// Read services a read request arriving at req.Time.
	Read(req *trace.Request) (sim.Duration, error)
	// Stats exposes the engine's accumulated metrics.
	Stats() *Stats
	// Metrics exposes the engine's metrics registry: per-phase latency
	// histograms plus the live gauges of its substrates (iCache
	// partition, map table, RAID accounting). One registry per engine;
	// the sharded server merges per-shard snapshots.
	Metrics() *metrics.Registry
	// UsedBlocks reports the physical capacity currently occupied, in
	// 4 KB blocks (Figure 10's metric).
	UsedBlocks() uint64
	// ReadContent returns the content identity stored at lba, for
	// consistency verification. ok is false for never-written blocks.
	ReadContent(lba uint64) (uint64, bool)
}

// Stats accumulates per-engine metrics over a replay.
type Stats struct {
	ReadRT  *stats.Histogram // per-request read response times, µs
	WriteRT *stats.Histogram // per-request write response times, µs

	Reads, Writes int64

	// write-path deduplication accounting
	WritesRemoved    int64 // write requests fully eliminated (no data I/O)
	ChunksWritten    int64 // chunks physically written
	ChunksDeduped    int64 // chunks mapped without writing
	Cat1, Cat2, Cat3 int64 // Select-Dedupe request categories (§III-B)

	IndexDiskIOs int64 // on-disk index lookups (Full-Dedupe's bottleneck)

	// cross-shard deduplication (global fingerprint tier)
	RemoteDeduped int64 // chunks absorbed against another shard's canonical copy
	RemoteReads   int64 // read blocks fetched from a peer shard's canonical

	// read path
	CacheHits, CacheMisses int64 // read-cache block hits/misses
	ReadIOs                int64 // disk read operations issued for user reads
	ReadAmplifiedReqs      int64 // read requests needing more I/Os than a contiguous layout would

	// background
	SwapInIOs     int64 // iCache swap-in disk reads
	BackgroundIOs int64 // background-dedup disk reads: sweeps, merge batches, fold revalidations

	// fault outcomes (requests that returned an error to the caller;
	// successful in-array recoveries are counted by the RAID layer)
	WriteErrors, ReadErrors int64

	NVRAMPeakBytes int64 // Map-table NVRAM high-water mark (§IV-D2)
}

// NewStats returns zeroed statistics.
func NewStats() *Stats {
	return &Stats{ReadRT: stats.NewHistogram(), WriteRT: stats.NewHistogram()}
}

// Reset zeroes all counters and histograms in place (the replayer calls
// it at the end of the warm-up window so measurements cover only the
// evaluation portion of a trace, as §IV-A warms the cache with the
// first 14 days and measures day 15).
func (s *Stats) Reset() {
	*s = Stats{ReadRT: stats.NewHistogram(), WriteRT: stats.NewHistogram()}
}

// Merge folds another engine's counters into s: scalars add, response
// time histograms merge. The sharded serving layer uses it to
// aggregate per-shard statistics into one report. A field added to
// Stats needs a line here; TestStatsMergeAggregatesShards fails until
// it has one.
func (s *Stats) Merge(o *Stats) {
	s.ReadRT.Merge(o.ReadRT)
	s.WriteRT.Merge(o.WriteRT)
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.WritesRemoved += o.WritesRemoved
	s.ChunksWritten += o.ChunksWritten
	s.ChunksDeduped += o.ChunksDeduped
	s.Cat1 += o.Cat1
	s.Cat2 += o.Cat2
	s.Cat3 += o.Cat3
	s.IndexDiskIOs += o.IndexDiskIOs
	s.RemoteDeduped += o.RemoteDeduped
	s.RemoteReads += o.RemoteReads
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ReadIOs += o.ReadIOs
	s.ReadAmplifiedReqs += o.ReadAmplifiedReqs
	s.SwapInIOs += o.SwapInIOs
	s.BackgroundIOs += o.BackgroundIOs
	s.WriteErrors += o.WriteErrors
	s.ReadErrors += o.ReadErrors
	s.NVRAMPeakBytes += o.NVRAMPeakBytes
}

// TotalRT reports the mean response time across reads and writes, µs.
func (s *Stats) TotalRT() float64 {
	n := s.ReadRT.N() + s.WriteRT.N()
	if n == 0 {
		return 0
	}
	return float64(s.ReadRT.Sum()+s.WriteRT.Sum()) / float64(n)
}

// WriteRemovalPct reports the percentage of write requests eliminated
// (Figure 11's metric).
func (s *Stats) WriteRemovalPct() float64 {
	return stats.Ratio(s.WritesRemoved, s.Writes)
}

// DedupRatioPct reports the percentage of write chunks deduplicated.
func (s *Stats) DedupRatioPct() float64 {
	return stats.Ratio(s.ChunksDeduped, s.ChunksDeduped+s.ChunksWritten)
}

// CacheHitPct reports the read-cache hit ratio.
func (s *Stats) CacheHitPct() float64 {
	return stats.Ratio(s.CacheHits, s.CacheHits+s.CacheMisses)
}
