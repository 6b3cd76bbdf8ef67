package engine

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/icache"
	"github.com/pod-dedup/pod/internal/locality"
	"github.com/pod-dedup/pod/internal/maptable"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/nvram"
	"github.com/pod-dedup/pod/internal/probe"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Latency constants of the controller model.
const (
	// MemHitUS is the service time of a request satisfied entirely
	// from the storage cache.
	MemHitUS = 20
	// MapUpdateUS is the bookkeeping cost charged when a write is
	// fully absorbed by the Map table (no data I/O).
	MapUpdateUS = 10
	// RemoteReadUS is the flat service time charged when a read must
	// fetch a cross-shard canonical block (a remote-encoded mapping
	// installed by the global fingerprint tier). It models a fetch
	// from a peer's cache/disk over the interconnect rather than a
	// trip through the local disk queues; see DESIGN.md §12.
	RemoteReadUS = 2000
)

// IndexZoneFrac is the fraction of the array reserved at the top of the
// physical space for the on-disk index and the iCache swap area.
const IndexZoneFrac = 32 // 1/32 of capacity

// Config assembles a storage engine's substrates.
type Config struct {
	Array *raid.Array

	// Storage-cache DRAM budget and partitioning.
	MemoryBytes     int64
	IndexFrac       float64
	Adaptive        bool
	Interval        sim.Duration
	IndexEntryBytes int

	// Select-Dedupe partial-redundancy threshold (the paper uses 3).
	Threshold int
	// iDedup minimum duplicate-sequence length in chunks; requests
	// smaller than this bypass deduplication entirely.
	IDedupThreshold int

	// Fingerprinter and HashWorkers are what the benchmark harness hands
	// chunk.NewHashEngine; WithDefaults fills the only values it accepts
	// (SyntheticFingerprinter, 1). No engine reads them: a chunk is
	// fingerprinted by content ID where it is cut.
	Fingerprinter chunk.Fingerprinter
	HashWorkers   int

	// NVRAMBytes sizes the Map-table journal; 0 disables journaling.
	NVRAMBytes int

	// Verify makes every dedup decision check the physical content
	// model (catching index/store divergence at the point of damage).
	Verify bool

	// Streams configures HPDedup-style per-stream apportionment of the
	// fingerprint-index cache (off unless Streams.Enabled). Used by the
	// Select-Dedupe/POD write path; other engines ignore stream tags.
	Streams StreamParams

	// Chunking selects the request chunker. The zero value (Fixed4K)
	// keeps the paper's model: one chunk per 4 KiB slot, ContentID
	// straight from the trace. Gear/SeqCDC route every split through a
	// content-defined splitter that materializes the request's bytes
	// and re-derives ContentIDs from chunk content, so byte-shifted
	// redundancy dedups even though every trace ID is unique.
	Chunking cdc.Params
}

// StreamParams configures per-stream index-cache apportionment.
type StreamParams struct {
	Enabled bool
	// StaticShares, when non-nil, fixes each stream's share of the
	// index partition for the engine's lifetime (no estimator) —
	// the baseline the dynamic apportioner is evaluated against.
	// When nil, a temporal-locality estimator re-divides the partition
	// every iCache evaluation interval (Config.Interval) with a shared
	// floor per active stream; its sketch is sized to the index
	// partition.
	StaticShares map[uint32]float64
}

// WithDefaults fills unset fields with the evaluation defaults.
func (c Config) WithDefaults() Config {
	if c.IndexFrac == 0 {
		c.IndexFrac = 0.5
	}
	if c.Interval == 0 {
		c.Interval = 500 * sim.Millisecond
	}
	if c.IndexEntryBytes == 0 {
		c.IndexEntryBytes = 64
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.IDedupThreshold == 0 {
		c.IDedupThreshold = 8
	}
	if c.Fingerprinter == nil {
		c.Fingerprinter = chunk.SyntheticFingerprinter{}
	}
	if c.HashWorkers == 0 {
		c.HashWorkers = 1
	}
	return c
}

// Base is the substrate shared by the deduplicating engines.
type Base struct {
	Cfg   Config
	Array *raid.Array
	Alloc *alloc.Allocator
	Map   *maptable.Table
	Store *Store
	IC    *icache.Controller
	St    *Stats

	// Reg is the engine's metrics registry; Ph its per-phase latency
	// recorder (a pre-resolved handle — observing a phase is plain
	// integer arithmetic on the hot path).
	Reg *metrics.Registry
	Ph  *metrics.PhaseSet

	// Exact is the engine's exact fingerprint table, fingerprint → the
	// block holding that content: Full-Dedupe's full index (its hot
	// subset is IC's index partition) or an out-of-line core's canonical
	// table (bgdedup.Core). No engine has both. FreeBlocks forgets every
	// freed block in it.
	Exact *probe.Map[chunk.Fingerprint, alloc.PBA]

	// Tier is this shard's seat in the global fingerprint tier; nil
	// unless an agent took it (SetTier).
	Tier Tier

	// Background is the engine's one background task (nil without one):
	// ticked per request, flushed at end of run, reset by recovery. A
	// task that wraps another reads the field before replacing it.
	Background BackgroundTask

	dataBlocks uint64 // allocatable region [0, dataBlocks)
	zoneBlocks uint64 // reserved index/swap zone [dataBlocks, dataBlocks+zoneBlocks)
	rngState   uint64 // deterministic placement of index-zone lookups
	swapCursor uint64 // rotating offset into the swap area

	nvdev    *nvram.Device
	icparams icache.Params

	// Stream-mode state (nil/zero unless Cfg.Streams.Enabled): the
	// locality estimator behind dynamic apportionment, its schedule,
	// and per-stream write-removal accounting for the fairness gauges.
	Loc           *locality.Estimator
	nextApportion sim.Time
	strAcct       map[uint32]*streamWrites

	// chScratch backs Split. One write request is chunked, consumed,
	// and forgotten before the next arrives, so the whole replay shares
	// a single chunk buffer.
	chScratch []chunk.Chunk

	// splitter is the content-defined chunker (nil in Fixed4K mode).
	// Owns its own materialize/mark/cut scratch; allocation-free once
	// warm, like chScratch.
	splitter *cdc.Splitter

	// Per-request scratch buffers. An engine services one request at a
	// time (replay is single-threaded per engine; the serving layer
	// serializes per shard), and every buffer is fully consumed before
	// the next request arrives, so the whole replay shares one set. Each
	// is valid only until the method that returned it is called again —
	// see DESIGN.md "Buffer ownership".
	extScratch []alloc.Extent
	wfScratch  []alloc.PBA // WriteFresh result
	rdScratch  []alloc.PBA // ReadMapped resolved blocks
	hitScratch []bool      // ReadMapped cache-probe results
}

// NewBase wires up the substrates for cfg.
func NewBase(cfg Config) *Base {
	cfg = cfg.WithDefaults()
	if cfg.Array == nil {
		panic("engine: nil array")
	}
	if cfg.MemoryBytes <= 0 {
		panic("engine: non-positive memory budget")
	}
	total := cfg.Array.DataBlocks()
	zone := total / IndexZoneFrac
	if zone == 0 {
		panic(fmt.Sprintf("engine: an array of %d data blocks leaves no index zone: need at least %d", total, IndexZoneFrac))
	}
	if total > trace.LBALimit {
		// The content model is a trace.Volume, whose pages cover
		// [0, trace.LBALimit). pod.New and podsim's -disks/-diskblocks
		// check refuse a larger array, so one here is a bug.
		panic(fmt.Sprintf("engine: an array of %d data blocks is past the %d the content model addresses", total, uint64(trace.LBALimit)))
	}
	data := total - zone

	icp := icache.DefaultParams(cfg.MemoryBytes)
	icp.IndexFrac = cfg.IndexFrac
	icp.Adaptive = cfg.Adaptive
	icp.Interval = cfg.Interval
	icp.IndexEntryBytes = cfg.IndexEntryBytes

	var dev *nvram.Device
	if cfg.NVRAMBytes > 0 {
		dev = nvram.New(cfg.NVRAMBytes)
	}

	reg := metrics.NewRegistry()
	b := &Base{
		Cfg:        cfg,
		Array:      cfg.Array,
		Alloc:      alloc.New(data),
		Map:        maptable.New(dev),
		Store:      NewStore(),
		Exact:      probe.NewMap[chunk.Fingerprint, alloc.PBA](0),
		St:         NewStats(),
		Reg:        reg,
		Ph:         reg.Phases(),
		dataBlocks: data,
		zoneBlocks: zone,
		rngState:   0x9E3779B97F4A7C15,
		nvdev:      dev,
		icparams:   icp,
	}
	if cfg.Chunking.Enabled() {
		b.splitter = cdc.NewSplitter(cfg.Chunking)
		b.Cfg.Chunking = b.splitter.Params() // defaults filled
	}
	b.coldCache()
	b.instrument()
	return b
}

// coldCache is the one place Base builds its iCache: empty, and in
// stream mode (Cfg.Streams) split per stream, with a fresh locality
// estimator for dynamic apportionment. Construction and recovery both
// call it — the caches and the estimator are DRAM state and come back
// cold together; the per-stream write accounting is cumulative, like
// Stats, and is kept.
func (b *Base) coldCache() {
	b.IC = icache.New(b.icparams)
	sp := b.Cfg.Streams
	if !sp.Enabled {
		return
	}
	b.IC.EnableStreams(sp.StaticShares)
	b.nextApportion = sim.Time(b.Cfg.Interval)
	if b.strAcct == nil {
		b.strAcct = make(map[uint32]*streamWrites)
	}
	if sp.StaticShares != nil {
		return
	}
	// size the sketch so a sketch hit predicts an index hit at full
	// quota: index-partition entries, scaled by the sample rate
	lp := locality.Params{}.WithDefaults()
	if w := b.IC.IndexCapTotal() >> lp.SampleShift; w > 0 {
		lp.WindowEntries = w
	}
	b.Loc = locality.New(lp)
}

// instrument wires the substrates' live gauges into the registry. It
// runs at construction and again after Recover replaces the map table
// and caches (GaugeFunc re-registration swaps the callbacks, so the
// gauges always read the live objects).
func (b *Base) instrument() {
	b.Array.Instrument(b.Reg)
	b.Map.Instrument(b.Reg)
	b.IC.Instrument(b.Reg)
	if b.splitter != nil {
		b.Reg.GaugeFunc("cdc_emitted_chunks", func() int64 { return b.splitter.EmittedChunks })
		b.Reg.GaugeFunc("cdc_emitted_bytes", func() int64 { return b.splitter.EmittedBytes })
		b.Reg.GaugeFunc("cdc_materialized_bytes", func() int64 { return b.splitter.MaterializedBytes })
		b.Reg.GaugeFunc("cdc_swept_bytes", func() int64 { return b.splitter.SweptBytes })
	}
	// Allocator health, published for every scheme: occupancy, the
	// fragmentation of the free space, and the headroom the
	// log-structured write path actually has.
	b.Reg.GaugeFunc("alloc_used_blocks", func() int64 { return int64(b.Alloc.Used()) })
	b.Reg.GaugeFunc("alloc_free_extents", func() int64 { return int64(b.Alloc.NumFreeExtents()) })
	b.Reg.GaugeFunc("alloc_largest_free", func() int64 { return int64(b.Alloc.LargestFree()) })
	for id, c := range b.strAcct {
		b.instrumentStreamWrites(id, c)
	}
}

// streamWrites is one stream's write-removal accounting. Like Stats it
// is cumulative and survives crash recovery.
type streamWrites struct {
	writes, removed int64
}

// NoteStreamWrite attributes one serviced write request to its tenant
// stream for the per-stream fairness gauges (stream_writes and
// stream_writes_removed; readers compute the percentage from the two,
// which sum correctly across shards). A no-op unless stream mode is
// on, so untagged single-tenant runs publish byte-identical metrics.
func (b *Base) NoteStreamWrite(stream trace.StreamID, removed bool) {
	if b.strAcct == nil {
		return
	}
	id := uint32(stream)
	c := b.strAcct[id]
	if c == nil {
		c = &streamWrites{}
		b.strAcct[id] = c
		b.instrumentStreamWrites(id, c)
	}
	c.writes++
	if removed {
		c.removed++
	}
}

func (b *Base) instrumentStreamWrites(id uint32, c *streamWrites) {
	label := strconv.FormatUint(uint64(id), 10)
	b.Reg.GaugeFunc(metrics.Labeled("stream_writes", "stream", label),
		func() int64 { return c.writes })
	b.Reg.GaugeFunc(metrics.Labeled("stream_writes_removed", "stream", label),
		func() int64 { return c.removed })
}

// Tier is everything an engine says to, and asks of, the global
// fingerprint tier: one value, installed once by the shard's agent.
type Tier interface {
	// Advertise publishes one request's advertisements from the write
	// path, in order, and lands them all before returning. It must
	// never block on tier load, so the inline path stays shard-local;
	// ads is the caller's scratch and is not retained.
	Advertise(ads []Ad)
	// Hint sets w.Dup and w.Target for each chunk of w the hot index
	// missed that the tier's hint table binds to a peer's canonical
	// (never one whose owner is down). The lookup stage asks once a
	// request; hints live in the tier, never in the iCache.
	Hint(w *WriteOp)
	// RemoteRef reports a reference-count transition of remote-encoded
	// canonical c: up when the first local mapping referencing it
	// appears, !up when the last disappears — pin traffic toward the
	// owning shard.
	RemoteRef(c alloc.PBA, up bool)
	// Parole reports a local block whose last local reference vanished
	// while peers may still pin it (maptable.Table.OnParole).
	Parole(pba alloc.PBA)
	// OwnerDown reports whether a peer shard is a dead failure domain.
	// A remote read whose canonical owner is down fails transient
	// (KindShardDown) instead of charging RemoteReadUS: a down peer
	// cannot serve a fetch. Inline dedupe never asks — Hint names no
	// down owner's canonical (the crash dropped those hints).
	OwnerDown(owner int) bool
}

// Ad is one advertisement to the global fingerprint tier: Fresh marks
// a chunk physically written at PBA (a canonical candidate), !Fresh an
// inline dedup hit against the local block PBA (duplicate evidence).
type Ad struct {
	FP    chunk.Fingerprint
	PBA   alloc.PBA
	Fresh bool
}

// SetTier seats the shard's tier agent, on the Base and on its Map
// table; a recovered table takes the handler over from the one it
// replaces (RecoverLoad).
func (b *Base) SetTier(t Tier) {
	b.Tier = t
	b.Map.OnParole = t.Parole
}

// BackgroundTask is a unit of idle-time background work driven in
// virtual time from the engine's per-request Tick (the out-of-line
// deduplication scanner, the global tier's shard agent wrapping it,
// Post-Process's scan queue). Implementations issue their own I/O through
// the array at the tick time, so background work shares the disk queues
// with foreground requests.
type BackgroundTask interface {
	// Tick offers the task a chance to run at the given virtual time.
	Tick(now sim.Time)
	// Flush runs the task to convergence regardless of idle gating
	// (end-of-run capacity accounting).
	Flush(now sim.Time)
	// RecoverReset drops the task's volatile state after crash
	// recovery; durable effects live in the journaled Map table.
	RecoverReset()
}

// AbsorbWrite accounts a write request fully absorbed by the Map table
// (every chunk deduplicated — no data I/O): the request is counted as
// removed, the map-update bookkeeping cost is charged and attributed to
// the map_update phase, and the completion time moves accordingly.
func (b *Base) AbsorbWrite(done sim.Time) sim.Time {
	b.St.WritesRemoved++
	b.Ph.Observe(metrics.PhaseMapUpdate, MapUpdateUS)
	return done.Add(MapUpdateUS)
}

// NVRAM exposes the Map-table journal device (nil when journaling is
// disabled) so tests and the crash-recovery path can inject faults.
func (b *Base) NVRAM() *nvram.Device { return b.nvdev }

// Recover models a power failure followed by a restart: DRAM contents
// (index cache, read cache, ghosts) are lost; the Map table is rebuilt
// from the NVRAM journal up to its last intact record; allocator
// occupancy and the surviving physical contents are reconstructed from
// the recovered mappings (orphan blocks whose mapping record was torn
// are reclaimed). It returns the number of journal records applied.
//
// Every acknowledged write is durable by construction — the journal
// record is appended before the write completes — so the recovered
// logical view equals the state at the moment of the crash.
func (b *Base) Recover() (int, error) {
	applied, err := b.RecoverLoad()
	if err != nil {
		return applied, err
	}
	b.RecoverFinish(nil)
	return applied, nil
}

// RecoverLoad is the first phase of recovery: it rebuilds the Map
// table from the NVRAM journal. This is the one place a Map table is
// replaced, so the old table is handed to the load and the new one
// takes over its wiring (parole handler, reverse index) — nothing that
// attached to b.Map re-attaches after recovery. The sharded server runs
// this phase on every shard before any RecoverFinish, so cross-shard
// canonical references can be re-pinned on their owners before each
// owner prunes its physical contents.
func (b *Base) RecoverLoad() (int, error) {
	if b.nvdev == nil {
		return 0, fmt.Errorf("engine: no NVRAM configured (Config.NVRAMBytes = 0)")
	}
	b.nvdev.Recover()
	tbl, applied, err := maptable.Load(b.nvdev, b.Map)
	if err != nil {
		return 0, err
	}
	b.Map = tbl
	return applied, nil
}

// RecoverFinish completes recovery: allocator occupancy and surviving
// physical contents are reconstructed from the recovered mappings plus
// the given pinned blocks — cross-shard canonicals other shards
// reference, which must survive although no local mapping names them.
// pinned carries one entry per (referencing shard, block) pair, so
// duplicate PBAs are expected and each adds a pin. Remote-encoded
// mappings are skipped: their blocks live on the owning shard.
func (b *Base) RecoverFinish(pinned []alloc.PBA) {
	a := alloc.New(b.dataBlocks)
	keep := make(map[alloc.PBA]bool)
	reserve := func(pba alloc.PBA) {
		if !keep[pba] {
			keep[pba] = true
			if !a.Reserve(pba, 1) {
				panic(fmt.Sprintf("engine: recovered mapping references unreservable block %d", pba))
			}
		}
	}
	b.Map.Each(func(_ uint64, pba alloc.PBA, _ bool) bool {
		if !alloc.IsRemote(pba) {
			reserve(pba)
		}
		return true
	})
	for _, pba := range pinned {
		b.Map.Pin(pba)
		reserve(pba)
	}
	b.Alloc = a
	b.Store.Retain(keep)

	// volatile caches come back cold
	b.coldCache()
	// re-point the live gauges at the rebuilt substrates
	b.instrument()
	if b.Background != nil {
		b.Background.RecoverReset()
	}
}

// Release returns pooled substrate resources (the content model's page
// arenas) to their process-wide pools. The replay harness calls it once
// an engine's lifetime ends and its results have been extracted; the
// engine must not service further requests afterwards.
func (b *Base) Release() {
	b.Store.Release()
	b.Map.Release()
}

// DataBlocks reports the allocatable physical capacity.
func (b *Base) DataBlocks() uint64 { return b.dataBlocks }

// ReadContent resolves lba through the Map table into the content
// model. A remote-encoded mapping resolves to not-ok at engine level —
// the content lives on another shard; the serving layer hops via
// ResolveRemote.
func (b *Base) ReadContent(lba uint64) (uint64, bool) {
	pba, ok := b.Map.Lookup(lba)
	if !ok || alloc.IsRemote(pba) {
		return 0, false
	}
	id, ok := b.Store.Read(pba)
	return uint64(id), ok
}

// ResolveRemote reports whether lba maps to a cross-shard canonical
// and, if so, the remote-encoded reference. The sharded server uses it
// to hop content reads to the owning shard.
func (b *Base) ResolveRemote(lba uint64) (alloc.PBA, bool) {
	pba, ok := b.Map.Lookup(lba)
	if !ok || !alloc.IsRemote(pba) {
		return 0, false
	}
	return pba, true
}

// Split chunks a write request, each chunk fingerprinted where it is
// cut, and returns the modeled fingerprint latency: 32 µs per 4 KiB of
// content (⌈bytes / 4 KiB⌉ × chunk.DefaultChunkTimeUS), so under
// content-defined chunking the charge follows the bytes hashed rather
// than the chunk count. The caller charges it only if its policy
// fingerprints. The returned slice is the engine's scratch buffer,
// valid only until the next Split on this Base.
//
// Under content-defined chunking the split routes through the CDC
// splitter instead of the 1:1 slot mapping: chunk count may differ
// from req.N, and each chunk's ContentID is a hash of its materialized
// bytes.
func (b *Base) Split(req *trace.Request) ([]chunk.Chunk, sim.Duration) {
	bytes := int64(len(req.Content)) * chunk.Size
	if b.splitter != nil {
		b.chScratch, bytes = b.splitter.Split(b.chScratch[:0], req.Content)
	} else {
		b.chScratch = chunk.SplitInto(b.chScratch, req.Content, chunk.SyntheticFingerprinter{}, false)
	}
	return b.chScratch, sim.Duration((bytes + chunk.Size - 1) / chunk.Size * chunk.DefaultChunkTimeUS)
}

// FreeBlocks reclaims physical blocks: allocator, content model, read
// cache, and the entries the hot index and the exact table hold for
// them. A remote-encoded canonical that lost its last local reference
// lives on the owning shard: the tier's RemoteRef down transition
// fires, and only the shard's cached reads of it go — without this
// shard's ref pin the owner may free the block. A shard that still maps
// one keeps its cached copy, which stays valid. Only a shard whose tier
// agent is seated maps a remote-encoded block, so b.Tier is set
// whenever one reaches here (and in SetRemoteRef and ReadMapped).
func (b *Base) FreeBlocks(pbas []alloc.PBA) {
	for _, pba := range pbas {
		b.IC.PurgePBA(pba)
		if alloc.IsRemote(pba) {
			b.Tier.RemoteRef(pba, false)
			continue
		}
		b.Alloc.Free(pba, 1)
		// Neither the hot index nor the exact table keeps a block →
		// fingerprint map: an entry is only ever made for a live block
		// under the fingerprint of what it holds, and a dedup engine
		// writes the Store only into freshly allocated blocks, so the
		// freed block's residual content names the one fingerprint whose
		// entries can name it. Each goes only if it still names the
		// block: a newer copy keeps it.
		id, ok := b.Store.Free(pba)
		if !ok {
			continue
		}
		fp := id.Fingerprint()
		b.IC.ForgetIndex(fp, pba)
		if cur, found := b.Exact.Get(fp); found && cur == pba {
			b.Exact.Delete(fp)
		}
	}
}

// SetRemoteRef installs lba → canonical (a remote-encoded PBA) through
// the journaled map path, reporting RemoteRef on the 0→1 local
// reference transition and freeing whatever blocks the mapping
// displaced.
func (b *Base) SetRemoteRef(lba uint64, c alloc.PBA) {
	up := b.Map.RefCount(c) == 0
	b.FreeBlocks(b.Map.Set(lba, c, true))
	if up {
		b.Tier.RemoteRef(c, true)
	}
}

// TryDedupe absorbs one chunk of a write by referencing an existing
// copy: the Map table gains a shared mapping and no data I/O occurs.
// It first performs the paper's consistency check — the referenced
// block must still hold the expected content (an earlier chunk of the
// same request may have released it). On mismatch nothing changes and
// the caller writes the chunk instead.
func (b *Base) TryDedupe(lba uint64, pba alloc.PBA, id chunk.ContentID) bool {
	if alloc.IsRemote(pba) {
		// Cross-shard dedupe against a tier-granted hint. The local
		// content model cannot validate a peer's block; the binding
		// itself is trusted instead — Tier.Hint returns only bindings
		// valid by construction (globalfp's hint table says why;
		// fingerprints are injective over content IDs), and none
		// whose owner is down.
		b.SetRemoteRef(lba, pba)
		b.St.ChunksDeduped++
		b.St.RemoteDeduped++
		b.St.NVRAMPeakBytes = b.Map.PeakNVRAMBytes()
		return true
	}
	got, ok := b.Store.Read(pba)
	if !ok || got != id {
		return false
	}
	b.FreeBlocks(b.Map.Set(lba, pba, true))
	b.St.ChunksDeduped++
	b.St.NVRAMPeakBytes = b.Map.PeakNVRAMBytes()
	return true
}

// VerifyWrite asserts, after a write request has been fully applied,
// that every chunk of the request reads back with the written content.
// Engines call it when Cfg.Verify is set, passing the split they just
// applied (under CDC the chunk count and ContentIDs differ from the
// request's slots, so the request alone cannot name the expected
// content); it catches dedup or mapping corruption at the request that
// caused it.
func (b *Base) VerifyWrite(req *trace.Request, chs []chunk.Chunk) {
	if !b.Cfg.Verify {
		return
	}
	for i := range chs {
		lba := req.LBA + uint64(i)
		pba, ok := b.Map.Lookup(lba)
		if !ok {
			panic(fmt.Sprintf("engine: lba %d unmapped immediately after write", lba))
		}
		if alloc.IsRemote(pba) {
			// the content lives on the owning shard; the serving
			// layer's cross-shard audit verifies these bindings
			continue
		}
		b.Store.MustMatch(pba, chs[i].Content)
	}
}

// ErrNoSpace fails a write whose fresh chunks the array has no free
// blocks for. It is not transient: a retry finds no more space, so the
// serving layer does not retry it. The fresh chunks change nothing, as
// on a disk error; chunks of the same request that were deduplicated
// before placement stay mapped.
var ErrNoSpace = errors.New("engine: physical space exhausted")

// WriteFresh writes the request chunks at the given positions into
// freshly allocated extents, submitted at time at. It returns the
// completion time and the PBA assigned to each position (parallel to
// positions). The PBA slice aliases engine-owned scratch: it is valid
// only until the next WriteFresh call, long enough for the caller to
// index the freshly written fingerprints. Contiguous allocation is
// attempted first so that one request's data lands sequentially on
// disk — the property POD's classifier later tests with its
// "sequentially stored" condition.
//
// On a disk error the write is not applied: the allocated extents are
// released and neither the Map table nor the content model changes, so
// a retry of the same request starts from clean state and a failed
// write can never be half-visible to readers. When no free extent, or
// set of them, can hold the chunks, WriteFresh returns ErrNoSpace
// before allocating anything, with the same guarantee.
func (b *Base) WriteFresh(at sim.Time, req *trace.Request, positions []int, chs []chunk.Chunk) (sim.Time, []alloc.PBA, error) {
	n := uint64(len(positions))
	if n == 0 {
		return at, nil, nil
	}
	// Append-preferring allocation: take from the largest free extent
	// (normally the log frontier), so consecutive requests land
	// physically sequential even when reclaimed holes pepper the low
	// addresses. Only a space so fragmented that no extent fits falls
	// back to scattering.
	var extents []alloc.Extent
	if start, ok := b.Alloc.AllocLargest(n); ok {
		b.extScratch = append(b.extScratch[:0], alloc.Extent{Start: start, Count: n})
		extents = b.extScratch
	} else if scattered, ok := b.Alloc.AllocScattered(n); ok {
		extents = scattered
	} else {
		return at, nil, ErrNoSpace
	}

	if cap(b.wfScratch) < int(n) {
		b.wfScratch = make([]alloc.PBA, 0, n)
	}
	pbas := b.wfScratch[:0]
	done := at
	for _, e := range extents {
		c, err := b.Array.Write(at, uint64(e.Start), e.Count)
		done = sim.MaxTime(done, c)
		if err != nil {
			for _, ex := range extents {
				b.Alloc.Free(ex.Start, ex.Count)
			}
			return done, nil, err
		}
		for i := uint64(0); i < e.Count; i++ {
			pbas = append(pbas, e.Start+alloc.PBA(i))
		}
	}
	b.wfScratch = pbas
	for i, pos := range positions {
		pba := pbas[i]
		b.Store.Write(pba, chs[pos].Content)
		b.FreeBlocks(b.Map.Set(req.LBA+uint64(pos), pba, false))
	}
	b.St.ChunksWritten += int64(len(positions))
	b.St.NVRAMPeakBytes = b.Map.PeakNVRAMBytes()
	b.Ph.Observe(metrics.PhaseDiskWrite, int64(done.Sub(at)))
	return done, pbas, nil
}

// ReadMapped services a read request through the Map table (or at
// identity addresses when identity is set), filtering through the read
// cache and coalescing cache misses into contiguous disk runs. A disk
// error aborts the request with the virtual time already spent; blocks
// read before the failure stay cached (they were read successfully, and
// a retry benefits from them).
func (b *Base) ReadMapped(req *trace.Request, identity bool) (sim.Duration, error) {
	t := req.Time
	if cap(b.rdScratch) < req.N {
		b.rdScratch = make([]alloc.PBA, req.N)
	}
	pbas := b.rdScratch[:req.N]
	b.rdScratch = pbas
	for i := 0; i < req.N; i++ {
		lba := req.LBA + uint64(i)
		if identity {
			pbas[i] = alloc.PBA(lba % b.dataBlocks)
			continue
		}
		if pba, ok := b.Map.Lookup(lba); ok {
			pbas[i] = pba
		} else {
			pbas[i] = alloc.PBA(lba % b.dataBlocks) // never-written block: home position
		}
	}

	// one cache probe per block, then coalesce the misses into
	// contiguous disk runs
	hit := reset(b.hitScratch, req.N)
	b.hitScratch = hit
	remoteMiss := false
	for i := 0; i < req.N; i++ {
		if alloc.IsRemote(pbas[i]) {
			// A cross-shard canonical: probe the read cache under the
			// remote-encoded key (distinct from any local PBA); a
			// miss is a flat-latency fetch from the owning shard, not
			// a trip through the local disk queues. hit[i] keeps the
			// local miss-coalescing loop off this block either way.
			// A miss whose owner is down cannot be served at any
			// price: fail transient so the serving layer retries
			// against the deadline instead of fabricating a fetch.
			if b.IC.ReadHit(pbas[i]) {
				b.St.CacheHits++
			} else {
				if owner, _ := alloc.RemoteParts(pbas[i]); b.Tier.OwnerDown(owner) {
					b.St.CacheMisses++
					return 0, fault.New(fault.KindShardDown, fault.Transient, -1, uint64(pbas[i]), t)
				}
				b.St.CacheMisses++
				b.St.RemoteReads++
				b.IC.ReadInsert(pbas[i])
				remoteMiss = true
			}
			hit[i] = true
			continue
		}
		hit[i] = b.IC.ReadHit(pbas[i])
		if hit[i] {
			b.St.CacheHits++
		} else {
			b.St.CacheMisses++
		}
	}

	var missRuns int
	done := t
	i := 0
	anyMiss := remoteMiss
	if remoteMiss {
		done = t.Add(RemoteReadUS)
	}
	for i < req.N {
		if hit[i] {
			i++
			continue
		}
		j := i + 1
		for j < req.N && !hit[j] && pbas[j] == pbas[j-1]+1 {
			j++
		}
		c, err := b.Array.Read(t, uint64(pbas[i]), uint64(j-i))
		done = sim.MaxTime(done, c)
		if err != nil {
			b.St.ReadIOs += int64(missRuns + 1)
			return done.Sub(t), err
		}
		for k := i; k < j; k++ {
			b.IC.ReadInsert(pbas[k])
		}
		missRuns++
		anyMiss = true
		i = j
	}
	b.St.ReadIOs += int64(missRuns)
	if missRuns > 1 {
		b.St.ReadAmplifiedReqs++
	}
	if !anyMiss {
		return MemHitUS, nil
	}
	b.Ph.Observe(metrics.PhaseDiskRead, int64(done.Sub(t)))
	return done.Sub(t), nil
}

// IndexZoneIO issues k random 4 KB reads into the reserved on-disk
// index zone (Full-Dedupe's index-lookup traffic) starting at time at,
// returning the time the last lookup completes. Errors propagate: an
// index lookup that fails fails the request it was serving.
func (b *Base) IndexZoneIO(at sim.Time, k int) (sim.Time, error) {
	if k <= 0 {
		return at, nil
	}
	done := at
	for ; k > 0; k-- {
		b.rngState ^= b.rngState << 13
		b.rngState ^= b.rngState >> 7
		b.rngState ^= b.rngState << 17
		off := b.dataBlocks + b.rngState%b.zoneBlocks
		c, err := b.Array.Read(at, off, 1)
		done = sim.MaxTime(done, c)
		b.St.IndexDiskIOs++
		if err != nil {
			return done, err
		}
	}
	b.Ph.Observe(metrics.PhaseIndexProbe, int64(done.Sub(at)))
	return done, nil
}

// ApplyRepartition carries out the pin transfers and background swap
// I/O that an iCache repartition requires.
func (b *Base) ApplyRepartition(now sim.Time, rep icache.Repartition) {
	if !rep.Changed {
		return
	}
	// Swapped-out data lives in the reserved zone, written there
	// sequentially at eviction time (§III-C: "stored on a reserved
	// space on the back-end storage device"), so swapping K blocks back
	// in costs ⌈K/batch⌉ large sequential background reads — not K
	// scattered ones.
	if n := uint64(len(rep.ReadSwapIns)); n > 0 {
		batch := min(256, b.zoneBlocks) // a small array's whole zone
		for off := uint64(0); off < n; off += batch {
			cnt := min(n-off, batch)
			start := b.dataBlocks
			if left := b.zoneBlocks - batch; left > 0 {
				start += b.swapCursor % left
			}
			b.swapCursor += cnt
			// background traffic: errors are dropped, the swap-in is
			// simply retried by the next repartition that needs it
			b.Array.Read(now, start, cnt)
			b.St.SwapInIOs++
		}
	}
}

// Tick re-apportions stream quotas when due, advances the iCache
// controller and applies any repartition, and gives the background task
// a chance to run. Each part is inert on an engine not configured for
// it, so the Pipeline ticks every scheme the same way.
func (b *Base) Tick(now sim.Time) {
	if b.Loc != nil && now >= b.nextApportion {
		b.nextApportion = now.Add(b.Cfg.Interval)
		if shares := b.Loc.Apportion(); shares != nil {
			b.IC.SetStreamShares(shares)
		}
	}
	b.ApplyRepartition(now, b.IC.Tick(now))
	if b.Background != nil {
		b.Background.Tick(now)
	}
}

// CheckConsistency audits the cross-substrate invariants of a
// map-table-backed engine: the allocator's free list is well formed,
// the Map table's reference counts and reverse index match its
// mappings, every mapped physical block is live in the content model,
// allocator occupancy equals the distinct mapped blocks — so no block
// is leaked (allocated but unreachable) or double-used —, and every hot
// index entry, cached or ghosted, binds a live block holding its
// fingerprint's content, which FreeBlocks' forget by content relies
// on. Exposed for property tests and the chaos harness; not valid for
// engines that write at identity addresses without allocation (Native,
// I/O-Dedup).
func (b *Base) CheckConsistency() error {
	if err := b.Alloc.CheckInvariants(); err != nil {
		return fmt.Errorf("engine: allocator: %w", err)
	}
	if err := b.Map.CheckConsistency(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	mapped := make(map[alloc.PBA]bool)
	var bad error
	b.Map.Each(func(lba uint64, pba alloc.PBA, _ bool) bool {
		if alloc.IsRemote(pba) {
			// the block lives on the owning shard; the serving
			// layer's cross-shard audit covers these
			return true
		}
		if _, ok := b.Store.Read(pba); !ok {
			bad = fmt.Errorf("engine: lba %d maps to dead block %d", lba, pba)
			return false
		}
		mapped[pba] = true
		return true
	})
	if bad != nil {
		return bad
	}
	// Pinned blocks survive with zero local references (cross-shard
	// canonicals on parole), so occupancy is the union of mapped and
	// pinned blocks.
	b.Map.EachPinned(func(pba alloc.PBA, _ int) bool {
		if alloc.IsRemote(pba) {
			bad = fmt.Errorf("engine: remote-encoded reference %d carries local pins", pba)
			return false
		}
		if _, ok := b.Store.Read(pba); !ok {
			bad = fmt.Errorf("engine: pinned block %d is dead in the content model", pba)
			return false
		}
		mapped[pba] = true
		return true
	})
	if bad != nil {
		return bad
	}
	if uint64(len(mapped)) != b.Alloc.Used() {
		return fmt.Errorf("engine: %d distinct mapped+pinned blocks vs %d allocated (leak or double-use)",
			len(mapped), b.Alloc.Used())
	}
	return b.IC.CheckIndex(func(fp chunk.Fingerprint, pba alloc.PBA) error {
		if id, ok := b.Store.Read(pba); !ok || id.Fingerprint() != fp {
			return fmt.Errorf("engine: hot index binds %x to block %d, which holds content %d (live %v)", fp, pba, id, ok)
		}
		return nil
	})
}
