package main

import (
	"runtime"
	"time"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/globalfp"
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

// The layer ladder walks the workload's own trace through a request
// path assembled only from leaf-package public functions, in the order
// a POD engine calls them: split + fingerprint → index lookup →
// classify → allocate → map set → RAID write → index insert for
// writes; map lookup → read-cache probe → RAID read for reads. Each
// stage of a request consumes what the stage before it produced, and
// the clock is read between stages, so every rung gets its own
// nanoseconds, call count and operations per request. What the engine
// does between those calls (content-model checks, statistics, scratch
// handling, the tier and scanner hooks) is deliberately absent: the gap
// between the engine's span and the sum of the rungs is reported as
// ladder.residual_pct, and the gap between the ladder's write removal
// and the engine's as ladder.removed_pct_delta.

type rung int

const (
	rungSplitFP    rung = iota // chunk.SplitInto + HashEngine.FingerprintAll, or cdc Splitter.Split
	rungRecord                 // locality.Estimator.Record
	rungApportion              // Estimator.Apportion + Controller.SetStreamShares
	rungTick                   // icache Controller.Tick
	rungLookup                 // Controller.IndexLookupS
	rungClassify               // core.ClassifyInto
	rungAlloc                  // Allocator.AllocLargest / AllocScattered
	rungMapSet                 // maptable Table.Set (journals into nvram)
	rungFree                   // Allocator.Free, fed by Set's freed list
	rungPurge                  // Controller.PurgePBA, same feed
	rungRaidWrite              // raid Array.Write
	rungInsert                 // Controller.IndexInsertS
	rungMapLookup              // Table.Lookup
	rungReadHit                // Controller.ReadHit
	rungReadInsert             // Controller.ReadInsert
	rungRaidRead               // Array.Read
	rungGlue                   // the ladder's own bookkeeping between rungs; in no sum
	numRungs
)

var rungNames = [numRungs]string{"split_fp", "record", "apportion", "tick", "lookup", "classify", "alloc",
	"map_set", "free", "purge", "raid_write", "insert", "map_lookup", "read_hit", "read_insert", "raid_read", "glue"}

// rungCost accumulates one rung: time between clock reads, clock reads
// taken (one span each), and calls into the leaf function.
type rungCost struct {
	ns, spans, ops int64
}

// Latency constants of the controller model (engine.MemHitUS and
// engine.MapUpdateUS), and the index-zone fraction of the array
// (engine.IndexZoneFrac). Restated here because the ladder may not
// lean on the engine package's internals; they only steer virtual
// time, which decides disk-head state, not host cost.
const (
	memHitUS      = 20
	mapUpdateUS   = 10
	indexZoneFrac = 32
	selectThresh  = 3 // Select-Dedupe partial-redundancy threshold
)

// lane is one engine's worth of leaf substrates: the ladder keeps one
// per shard so per-lane table sizes match the workload's engines.
type lane struct {
	arr   *raid.Array
	al    *alloc.Allocator
	dev   *nvram.Device
	mt    *maptable.Table
	ic    *icache.Controller
	hash  *chunk.HashEngine
	split *cdc.Splitter
	loc   *locality.Estimator

	// content is the lane's physical content model (PBA → content id,
	// 0 = not live): the check TryDedupe makes before referencing a copy
	content    []chunk.ContentID
	dataBlocks uint64
	zoneBlocks uint64
	swapCursor uint64

	icInterval    sim.Duration
	nextEval      sim.Time // mirrors the controller's evaluation schedule, to count real ticks
	nextApportion sim.Time
	nextFree      sim.Time // serve lanes: FCFS queue in virtual time

	chs       []chunk.Chunk
	dup, ded  []bool
	target    []alloc.PBA
	positions []int
	pbas      []alloc.PBA
	hit       []bool
}

type adRecord struct {
	fp    chunk.Fingerprint
	pba   alloc.PBA
	shard int32
	fresh bool
}

type ladder struct {
	in    *input
	lanes []*lane
	cost  [numRungs]rungCost
	epoch time.Time
	buf   *spanBuf // non-nil when spans are kept for -spans-out

	writes, removed int64     // over the portion the engine's own counter covers
	rts             []float64 // the ladder's own virtual response times, µs
	fps             []chunk.Fingerprint
	ads             []adRecord
	ticks           int64
	apportions      int64
}

const maxRecordedFPs = 1 << 20

func newLadder(in *input, keepSpans *tracer) *ladder {
	l := &ladder{in: in, epoch: time.Now()}
	if keepSpans != nil {
		l.epoch = keepSpans.epoch
		l.buf = keepSpans.newBuf(0, 0)
	}
	n, algo := 1, cdc.Fixed4K
	switch in.spec.kind {
	case kindServe:
		n = serveShards
	case kindCDC:
		algo = cdc.Gear
	}
	for i := 0; i < n; i++ {
		l.lanes = append(l.lanes, newLane(in, algo))
	}
	return l
}

// newLane wires the leaf substrates the way engine.NewBase does for a
// POD engine over the same configuration.
func newLane(in *input, algo cdc.Algo) *lane {
	cfg := in.engineConfig(algo).WithDefaults()
	total := cfg.Array.DataBlocks()
	zone := total / indexZoneFrac
	icp := icache.DefaultParams(cfg.MemoryBytes)
	icp.IndexFrac = cfg.IndexFrac
	icp.Adaptive = true
	icp.Interval = cfg.Interval
	icp.IndexEntryBytes = cfg.IndexEntryBytes
	ln := &lane{
		arr:        cfg.Array,
		al:         alloc.New(total - zone),
		dev:        nvram.New(cfg.NVRAMBytes),
		ic:         icache.New(icp),
		hash:       chunk.NewHashEngine(cfg.Fingerprinter, cfg.HashWorkers),
		content:    make([]chunk.ContentID, total-zone),
		dataBlocks: total - zone,
		zoneBlocks: zone,
		icInterval: icp.Interval,
		nextEval:   sim.Time(icp.Interval),
	}
	ln.mt = maptable.New(ln.dev)
	if cfg.Chunking.Enabled() {
		ln.split = cdc.NewSplitter(cfg.Chunking)
	}
	if cfg.Streams.Enabled {
		ln.ic.EnableStreams(nil)
		lp := locality.Params{}.WithDefaults()
		if w := ln.ic.IndexCapTotal() >> lp.SampleShift; w > 0 {
			lp.WindowEntries = w
		}
		ln.loc = locality.New(lp)
		ln.nextApportion = sim.Time(icp.Interval)
	}
	return ln
}

// lap closes the stage that began at t, charging it to r with ops leaf
// calls, and returns the start of the next stage.
func (l *ladder) lap(r rung, t int64, ops int, req int) int64 {
	now := int64(time.Since(l.epoch))
	c := &l.cost[r]
	c.ns += now - t
	c.spans++
	c.ops += int64(ops)
	if l.buf != nil {
		l.buf.spans = append(l.buf.spans, span{name: spanRung + spanName(r), req: int32(req), parent: l.buf.t.cur.Load(), start: t, end: now})
	}
	return now
}

// lapOverhead measures what one lap itself costs, so it can be taken
// back out of every rung (a clock read is about as long as a classify).
func lapOverhead() float64 {
	probe := &ladder{epoch: time.Now()}
	const n = 1 << 18
	t := int64(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		t = probe.lap(rungGlue, t, 0, i)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// run walks the whole trace once.
func (l *ladder) run() {
	in := l.in
	serve := in.spec.kind == kindServe
	for i := range in.tr.Requests {
		r := &in.tr.Requests[i]
		ln, shard := l.lanes[0], 0
		at := r.Time
		if serve {
			shard = in.router.Shard(r.LBA)
			ln = l.lanes[shard]
			// the server's queued timing: a request starts when its
			// shard frees up
			at = sim.Time(float64(i) * 1e6 / serveRate)
			if at < ln.nextFree {
				at = ln.nextFree
			}
		}
		counted := serve || i >= in.warmup
		var rt sim.Duration
		if r.Op == trace.Write {
			rt = l.write(ln, shard, i, r, at, counted)
		} else {
			rt = l.read(ln, i, r, at)
		}
		ln.nextFree = at.Add(rt)
		l.rts = append(l.rts, float64(rt))
	}
}

// tick is engine.Base.Tick for a POD engine with no cleaner and no
// background task: re-apportion stream quotas when due, let the iCache
// controller evaluate, and issue the swap-in reads a repartition asks
// for.
func (l *ladder) tick(ln *lane, req int, now sim.Time, t int64) int64 {
	if ln.loc != nil && now >= ln.nextApportion {
		ln.nextApportion = now.Add(ln.icInterval)
		if shares := ln.loc.Apportion(); shares != nil {
			ln.ic.SetStreamShares(shares)
		}
		l.apportions++
		t = l.lap(rungApportion, t, 1, req)
	}
	if now >= ln.nextEval {
		ln.nextEval = now.Add(ln.icInterval)
		l.ticks++
	}
	rep := ln.ic.Tick(now)
	t = l.lap(rungTick, t, 1, req)
	if n := uint64(len(rep.ReadSwapIns)); rep.Changed && n > 0 {
		const batch = 256
		ios := 0
		for off := uint64(0); off < n; off += batch {
			cnt := min(n-off, batch)
			start := ln.dataBlocks + ln.swapCursor%(ln.zoneBlocks-batch)
			ln.swapCursor += cnt
			ln.arr.Read(now, start, cnt) // background traffic: errors are dropped
			ios++
		}
		t = l.lap(rungRaidRead, t, ios, req)
	}
	return t
}

// free returns blocks whose last reference went away: allocator,
// content model, and every cache entry naming them.
func (l *ladder) free(ln *lane, req int, freed []alloc.PBA, t int64) int64 {
	if len(freed) == 0 {
		return t
	}
	for _, pba := range freed {
		ln.al.Free(pba, 1)
	}
	t = l.lap(rungFree, t, len(freed), req)
	for _, pba := range freed {
		ln.content[pba] = 0
		ln.ic.PurgePBA(pba)
	}
	return l.lap(rungPurge, t, len(freed), req)
}

func (l *ladder) write(ln *lane, shard, req int, r *trace.Request, at sim.Time, counted bool) sim.Duration {
	t := int64(time.Since(l.epoch))
	t = l.tick(ln, req, at, t)

	// split + fingerprint, and the modelled fingerprint latency
	var fpCost int64
	if ln.split != nil {
		var bytes int64
		ln.chs, bytes = ln.split.Split(ln.chs[:0], r.Content)
		fpCost = (bytes + chunk.Size - 1) / chunk.Size * ln.hash.ChunkTimeUS
	} else {
		ln.chs = chunk.SplitInto(ln.chs, r.Content, nil, false)
		fpCost = ln.hash.FingerprintAll(ln.chs)
	}
	chs := ln.chs
	n := len(chs)
	t = l.lap(rungSplitFP, t, 1, req)
	if ln.loc != nil {
		for i := range chs {
			ln.loc.Record(uint32(r.Stream), chs[i].FP)
		}
		t = l.lap(rungRecord, t, n, req)
	}
	ready := at.Add(sim.Duration(fpCost))

	ln.dup, ln.ded = resize(ln.dup, n), resize(ln.ded, n)
	if cap(ln.target) < n {
		ln.target = make([]alloc.PBA, n)
	}
	dup, ded, target := ln.dup, ln.ded, ln.target[:n]
	if len(l.fps) < maxRecordedFPs {
		for i := range chs {
			l.fps = append(l.fps, chs[i].FP)
		}
	}
	t = l.lap(rungGlue, t, 0, req)

	for i := range chs {
		e, ok := ln.ic.IndexLookupS(uint32(r.Stream), chs[i].FP)
		dup[i], target[i] = ok, e.PBA
	}
	t = l.lap(rungLookup, t, n, req)

	core.ClassifyInto(ded, dup, target, selectThresh)
	t = l.lap(rungClassify, t, 1, req)

	// absorb the chunks the classifier chose, if the copy they point at
	// still holds that content (an earlier chunk of this request may
	// have released it); the rest are written. The clock is read only
	// when a Set frees a block, so the stage carries the loop around it.
	positions := ln.positions[:0]
	sets := 0
	for i := range chs {
		if !ded[i] || ln.content[target[i]] != chs[i].Content {
			positions = append(positions, i)
			continue
		}
		freed := ln.mt.Set(r.LBA+uint64(i), target[i], true)
		sets++
		if len(freed) > 0 {
			t = l.lap(rungMapSet, t, sets, req)
			t = l.free(ln, req, freed, t)
			sets = 0
		}
		if l.in.spec.tier {
			l.ads = append(l.ads, adRecord{fp: chs[i].FP, pba: target[i], shard: int32(shard), fresh: false})
		}
	}
	ln.positions = positions
	t = l.lap(rungMapSet, t, sets, req)

	done := ready
	if len(positions) == 0 {
		done = ready.Add(mapUpdateUS)
		if counted {
			l.removed++
		}
	} else {
		done, t = l.writeFresh(ln, shard, req, r, ready, t)
	}
	if counted {
		l.writes++
	}
	l.lap(rungGlue, t, 0, req)
	return done.Sub(at)
}

// writeFresh places the request's remaining chunks in one freshly
// allocated run (scattering only when no extent fits), writes it, maps
// it, and indexes the new fingerprints.
func (l *ladder) writeFresh(ln *lane, shard, req int, r *trace.Request, ready sim.Time, t int64) (sim.Time, int64) {
	chs, positions := ln.chs, ln.positions
	n := uint64(len(positions))
	var extents []alloc.Extent
	if start, ok := ln.al.AllocLargest(n); ok {
		extents = []alloc.Extent{{Start: start, Count: n}}
	} else if scattered, ok := ln.al.AllocScattered(n); ok {
		extents = scattered
	} else {
		panic("bench: ladder ran out of physical space")
	}
	t = l.lap(rungAlloc, t, 1, req)

	done := ready
	pbas := ln.pbas[:0]
	for _, e := range extents {
		c, _ := ln.arr.Write(ready, uint64(e.Start), e.Count) // no injector: cannot fail
		done = sim.MaxTime(done, c)
		for i := uint64(0); i < e.Count; i++ {
			pbas = append(pbas, e.Start+alloc.PBA(i))
		}
	}
	ln.pbas = pbas
	t = l.lap(rungRaidWrite, t, len(extents), req)

	sets := 0
	for k, pos := range positions {
		ln.content[pbas[k]] = chs[pos].Content
		freed := ln.mt.Set(r.LBA+uint64(pos), pbas[k], false)
		sets++
		if len(freed) > 0 {
			t = l.lap(rungMapSet, t, sets, req)
			t = l.free(ln, req, freed, t)
			sets = 0
		}
	}
	t = l.lap(rungMapSet, t, sets, req)
	for k, pos := range positions {
		ln.ic.IndexInsertS(uint32(r.Stream), chs[pos].FP, pbas[k])
	}
	t = l.lap(rungInsert, t, len(positions), req)
	if l.in.spec.tier {
		for k, pos := range positions {
			l.ads = append(l.ads, adRecord{fp: chs[pos].FP, pba: pbas[k], shard: int32(shard), fresh: true})
		}
	}
	return done, t
}

func (l *ladder) read(ln *lane, req int, r *trace.Request, at sim.Time) sim.Duration {
	t := int64(time.Since(l.epoch))
	t = l.tick(ln, req, at, t)
	n := r.N
	if cap(ln.pbas) < n {
		ln.pbas = make([]alloc.PBA, n)
	}
	pbas := ln.pbas[:n]
	ln.hit = resize(ln.hit, n)
	hit := ln.hit
	t = l.lap(rungGlue, t, 0, req)

	for i := 0; i < n; i++ {
		lba := r.LBA + uint64(i)
		if pba, ok := ln.mt.Lookup(lba); ok {
			pbas[i] = pba
		} else {
			pbas[i] = alloc.PBA(lba % ln.dataBlocks) // never written: home position
		}
	}
	t = l.lap(rungMapLookup, t, n, req)
	for i := 0; i < n; i++ {
		hit[i] = ln.ic.ReadHit(pbas[i])
	}
	t = l.lap(rungReadHit, t, n, req)

	// coalesce the misses into contiguous disk runs
	done, runs := at, 0
	for i := 0; i < n; {
		if hit[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && !hit[j] && pbas[j] == pbas[j-1]+1 {
			j++
		}
		c, _ := ln.arr.Read(at, uint64(pbas[i]), uint64(j-i))
		done = sim.MaxTime(done, c)
		runs++
		t = l.lap(rungRaidRead, t, 1, req)
		for k := i; k < j; k++ {
			ln.ic.ReadInsert(pbas[k])
		}
		t = l.lap(rungReadInsert, t, j-i, req)
		i = j
	}
	l.lap(rungGlue, t, 0, req)
	if runs == 0 {
		return memHitUS
	}
	return done.Sub(at)
}

func resize(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// --- isolated drivers on the ladder's recorded outputs ---

// timeOps runs fn once and reports nanoseconds per operation.
func timeOps(ops int, fn func()) float64 {
	if ops == 0 {
		return 0
	}
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// cacheRungs times cache.LRU and probe.Map on the recorded fingerprint
// stream, with the LRU sized to the workload's index partition: puts
// that evict (the partition is full) and gets that hit (the most recent
// partition's worth of keys).
func (l *ladder) cacheRungs() (getHit, putEvict, probeGet, probePut float64) {
	fps := l.fps
	capacity := l.lanes[0].ic.IndexCapTotal()
	if len(fps) == 0 || capacity < 1 {
		return
	}
	lru := cache.NewLRU[chunk.Fingerprint, uint64](capacity)
	var evNS, evOps int64
	for i := 0; i < len(fps); {
		// fill or evict in stretches, so the clock is read per stretch
		full := lru.Len() >= lru.Cap()
		j := i
		start := time.Now()
		for ; j < len(fps) && (lru.Len() >= lru.Cap()) == full && j-i < 4096; j++ {
			lru.Put(fps[j], uint64(j))
		}
		if full {
			evNS += time.Since(start).Nanoseconds()
			evOps += int64(j - i)
		}
		i = j
	}
	if evOps > 0 {
		putEvict = float64(evNS) / float64(evOps)
	}
	recent := fps
	if len(recent) > capacity {
		recent = recent[len(recent)-capacity:]
	}
	var sink uint64
	getHit = timeOps(len(recent), func() {
		for _, fp := range recent {
			v, _ := lru.Get(fp)
			sink += v
		}
	})
	m := probe.NewMap[chunk.Fingerprint, uint64](0)
	probePut = timeOps(len(fps), func() {
		for i, fp := range fps {
			m.Put(fp, uint64(i))
		}
	})
	probeGet = timeOps(len(fps), func() {
		for _, fp := range fps {
			v, _ := m.Get(fp)
			sink += v
		}
	})
	runtime.KeepAlive(sink)
	return
}

// loadMS times maptable.Load on every lane's populated journal device.
func (l *ladder) loadMS() float64 {
	start := time.Now()
	for _, ln := range l.lanes {
		// the table is dropped: only the replay of the ladder's own,
		// intact journal is timed
		_, _, _ = maptable.Load(ln.dev)
	}
	return float64(time.Since(start).Microseconds()) / 1000
}

// journalBytesPerWrite reports NVRAM bytes appended per write request.
func (l *ladder) journalBytesPerWrite() float64 {
	var b int64
	for _, ln := range l.lanes {
		b += ln.dev.BytesWritten()
	}
	return ratio(float64(b), float64(l.in.writes))
}

// advertiseNS replays the recorded advertisement stream into a
// standalone tier and reports the publisher's cost per call.
func (l *ladder) advertiseNS() float64 {
	if len(l.ads) == 0 {
		return 0
	}
	tier, err := globalfp.NewTier(serveShards, globalfp.Params{})
	if err != nil {
		return 0
	}
	ns := timeOps(len(l.ads), func() {
		for i := range l.ads {
			a := &l.ads[i]
			tier.Advertise(int(a.shard), a.fp, a.pba, a.fresh)
		}
	})
	tier.Stop()
	return ns
}

// observeNS times metrics.Histogram.Observe on the ladder's own
// response times.
func (l *ladder) observeNS() float64 {
	h := metrics.NewRegistry().Histogram("bench_observe_us")
	return timeOps(len(l.rts), func() {
		for _, v := range l.rts {
			h.Observe(int64(v))
		}
	})
}

// routeNS times server.Router.Shard over the trace's addresses.
func routeNS(in *input) float64 {
	var sink int
	ns := timeOps(len(in.tr.Requests), func() {
		for i := range in.tr.Requests {
			sink += in.router.Shard(in.tr.Requests[i].LBA)
		}
	})
	runtime.KeepAlive(sink)
	return ns
}

// cdcRungs times the content-defined chunkers and the byte
// materialiser over the trace's writes, in MB of content per second.
func cdcRungs(in *input) (gear, seq, materialize float64) {
	split := func(algo cdc.Algo) float64 {
		s := cdc.NewSplitter(cdc.Params{Algo: algo})
		var dst []chunk.Chunk
		var bytes int64
		start := time.Now()
		for i := range in.tr.Requests {
			if r := &in.tr.Requests[i]; r.Op == trace.Write {
				var n int64
				dst, n = s.Split(dst[:0], r.Content)
				bytes += n
			}
		}
		return ratio(float64(bytes)/1e6, time.Since(start).Seconds())
	}
	gear, seq = split(cdc.Gear), split(cdc.SeqCDC)

	var buf []byte
	var bytes int64
	start := time.Now()
	for i := range in.tr.Requests {
		r := &in.tr.Requests[i]
		if r.Op != trace.Write || !cdc.IsEdit(r.Content[0]) {
			continue
		}
		obj, gen, idx := cdc.DecodeEdit(r.Content[0])
		if n := r.N * chunk.Size; cap(buf) < n {
			buf = make([]byte, n)
		}
		cdc.MaterializeStream(obj, gen, int64(idx)*chunk.Size, buf[:r.N*chunk.Size])
		bytes += int64(r.N) * chunk.Size
	}
	materialize = ratio(float64(bytes)/1e6, time.Since(start).Seconds())
	return
}
