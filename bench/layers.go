package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// gcCPUSeconds reads the runtime's estimate of CPU spent on garbage
// collection. It is refreshed at the end of each GC cycle.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// layerRun is the state the sections of a per-layer run share.
type layerRun struct {
	s   spec
	o   options
	in  *input
	rec *record
	n   float64 // requests in the trace

	last    outcome // the last traced pass: its counters are the C metrics
	tc      *tracer // and its spans the S metrics
	offMed  float64 // median wall of the untraced passes, s
	tracers []*tracer
}

func (lr *layerRun) set(name string, v float64) { lr.rec.set(name, single(v, 1)) }

// gauge reads one gauge of the last traced pass's merged registry
// snapshot; labeled sums a labelled family and counts its series.
func (lr *layerRun) gauge(name string) float64 { return float64(lr.last.snap.Gauges[name]) }

func (lr *layerRun) labeled(name string) (sum float64, series int) {
	for k, v := range lr.last.snap.Gauges {
		if strings.HasPrefix(k, name+"{") {
			sum += float64(v)
			series++
		}
	}
	return sum, series
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// runTraced is the per-layer protocol: one set-up, alternating passes
// with tracing off and on (their difference is the tracing overhead),
// one observed pass for recovery and the median sojourn, the serving
// layer's extra passes, and the layer ladder with its isolated drivers.
// Every name in perLayer is reported on every workload; a layer the
// workload bypasses reports 0.
func runTraced(s spec, o options) (*record, error) {
	rec := newRecord(s, o, perLayer)
	in, drv, err := setUp(s, o, rec)
	if err != nil {
		return nil, err
	}
	rec.Requests = len(in.tr.Requests)
	lr := &layerRun{s: s, o: o, in: in, rec: rec, n: float64(len(in.tr.Requests))}

	// --- paired passes: tracing off, tracing on ---
	minPairs := 2
	if o.quick {
		minPairs = 1
	}
	var offWall, onWall []float64
	var ref outcome // the first untraced pass: the state every exact pass must reproduce
	var gcCPU, procCPU float64
	deadline := time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	for len(offWall) < minPairs || time.Now().Before(deadline) {
		collect()
		g0, c0 := gcCPUSeconds(), processCPU()
		off := drv.timed(nil)
		gcCPU += gcCPUSeconds() - g0
		procCPU += (processCPU() - c0).Seconds()
		offWall = append(offWall, off.use.wall.Seconds())

		collect()
		lr.tc = newTracer()
		lr.last = drv.timed(lr.tc)
		onWall = append(onWall, lr.last.use.wall.Seconds())
		if o.spansOut != "" {
			lr.tracers = append(lr.tracers, lr.tc)
		}
		rec.count(&off, "untraced pass")
		rec.count(&lr.last, "traced pass")
		if len(offWall) == 1 {
			ref = off
		}
		// traced-pass fidelity: the decorator must not change what the
		// engines compute
		if s.exact && (!off.sameState(&ref) || !lr.last.sameState(&ref)) {
			rec.fail(1, "a traced or untraced pass ended in a different simulated state than the first")
		}
	}
	rec.Reps = len(offWall)
	_, lr.offMed, _ = quartiles(offWall)
	_, onMed, _ := quartiles(onWall)
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	lr.set("trace.overhead_pct", 100*(ratio(onMed, lr.offMed)-1))
	lr.set("gc.cpu_pct", pct(gcCPU, procCPU))
	lr.set("gc.heap_peak_mb", float64(heap.HeapSys)/1e6)
	lr.set("workload.gen_ms", ms(in.genTime))
	lr.set("workload.requests", lr.n)
	lr.set("workload.write_pct", pct(float64(in.writes), lr.n))
	lr.set("workload.chunks_per_req", float64(in.chunks)/lr.n)

	// --- observed pass: snapshot cost, recovery, median sojourn ---
	smp := &samples{}
	obs, systems := drv.observed(smp)
	rec.count(&obs, "observed pass")
	if s.exact && !obs.sameState(&ref) {
		rec.fail(1, "observed pass ended in a different simulated state than the timed passes")
	}
	recoverMS := lr.populated(systems)

	lr.spans()
	lr.counters()
	if sd, ok := drv.(*serveDriver); ok {
		sort.Float64s(smp.sojournUS)
		lr.set("server.sojourn_p50_ms", percentile(smp.sojournUS, 50)/1000)
		lr.serving(sd)
		if s.tier {
			lr.set("globalfp.recover_ms", recoverMS)
		}
	}
	lr.ladder()

	if o.spansOut != "" {
		if err := writeSpans(o.spansOut, lr.tracers); err != nil {
			return nil, err
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// populated measures what is measured on a populated system: the cost
// of a registry snapshot, and crash recovery (three times over: it
// rebuilds from the same journal each time), after which the gate must
// still pass. It returns the median recovery time in ms.
func (lr *layerRun) populated(systems []system) float64 {
	start := time.Now()
	for _, sys := range systems {
		switch v := sys.(type) {
		case *server.Server:
			v.Stats()
		case podEngine:
			v.Metrics().Snapshot()
		}
	}
	lr.set("metrics.snapshot_ms", ms(time.Since(start)))

	rounds := 3
	if lr.o.quick {
		rounds = 1
	}
	var records int
	var recoverMS []float64
	for k := 0; k < rounds; k++ {
		collect()
		records = 0
		start := time.Now()
		for _, sys := range systems {
			lr.rec.Attempted++
			r, err := sys.CrashAndRecover()
			if err != nil {
				lr.rec.fail(1, "crash recovery: %v", err)
			}
			records += r
		}
		recoverMS = append(recoverMS, ms(time.Since(start)))
	}
	gate(lr.rec, lr.in, systems, "after crash recovery")
	_, med, _ := quartiles(recoverMS)
	lr.set("engine.recover_ms", med)
	lr.set("engine.recover_records", float64(records))
	return med
}

// spans reports what the last traced pass's spans say (source S).
func (lr *layerRun) spans() {
	passName, parallel := spanReplay, 1
	if lr.s.kind == kindServe {
		passName, parallel = spanServe, min(serveShards, lr.o.procs)
	}
	passNS, _ := lr.tc.total(passName, -1)
	wNS, wN := lr.tc.total(spanEngineWrite, -1)
	rNS, rN := lr.tc.total(spanEngineRead, -1)
	lr.set("engine.write_ns", ratio(float64(wNS), float64(wN)))
	lr.set("engine.read_ns", ratio(float64(rNS), float64(rN)))
	lr.set("engine.busy_pct", pct(float64(wNS+rNS), float64(passNS)*float64(parallel)))
	if lr.s.kind != kindServe {
		lr.set("replay.loop_ns_per_req", float64(passNS-wNS-rNS)/float64(lr.last.requests))
	}
}

// counters reports what the last traced pass's public counters say
// (source C): the merged registry snapshot, the merged engine.Stats,
// and the arrays the benchmark built.
func (lr *layerRun) counters() {
	st, snap := lr.last.st, lr.last.snap
	phase := func(p metrics.Phase) float64 {
		if h := snap.Histograms["phase_"+p.String()+"_us"]; h != nil {
			return h.Mean()
		}
		return 0
	}
	engines := float64(len(lr.last.arrays))
	lr.set("engine.sim_fingerprint_mean_us", phase(metrics.PhaseFingerprint))
	lr.set("engine.sim_index_probe_mean_us", phase(metrics.PhaseIndexProbe))
	lr.set("engine.sim_map_update_mean_us", phase(metrics.PhaseMapUpdate))
	lr.set("engine.sim_disk_read_mean_us", phase(metrics.PhaseDiskRead))
	lr.set("engine.sim_disk_write_mean_us", phase(metrics.PhaseDiskWrite))
	lr.set("core.cat1_pct", pct(float64(st.Cat1), float64(st.Writes)))
	lr.set("core.cat2_pct", pct(float64(st.Cat2), float64(st.Writes)))
	lr.set("core.cat3_pct", pct(float64(st.Cat3), float64(st.Writes)))
	lr.set("cdc.chunks_per_req", ratio(lr.gauge("cdc_emitted_chunks"), float64(lr.in.writes)*engines))
	lr.set("cdc.mean_chunk_bytes", ratio(lr.gauge("cdc_emitted_bytes"), lr.gauge("cdc_emitted_chunks")))
	if hits, lookups := lr.gauge("index_hot_hits"), lr.gauge("index_hot_hits")+lr.gauge("index_hot_misses"); lookups > 0 {
		lr.set("icache.index_hit_pct", pct(hits, lookups))
	} else { // stream mode keeps hit accounting per stream
		h, _ := lr.labeled("icache_stream_hits")
		l, _ := lr.labeled("icache_stream_lookups")
		lr.set("icache.index_hit_pct", pct(h, l))
	}
	lr.set("icache.read_hit_pct", pct(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	lr.set("icache.repartitions", lr.gauge("icache_repartitions"))
	lr.set("icache.index_frac_final_permille", ratio(lr.gauge("icache_index_frac_permille"), engines))
	lr.set("icache.ghost_hits", lr.gauge("icache_ghost_index_hits_total")+lr.gauge("icache_ghost_read_hits_total"))
	lr.set("icache.swapins", lr.gauge("icache_swapins_index")+lr.gauge("icache_swapins_read"))
	lr.set("maptable.shared_entries_peak", lr.gauge("maptable_shared_entries_peak"))
	lr.set("alloc.free_extents_final", ratio(lr.gauge("alloc_free_extents"), engines))
	lr.set("alloc.largest_free_final", ratio(lr.gauge("alloc_largest_free"), engines))
	_, streams := lr.labeled("icache_stream_quota")
	lr.set("locality.streams", float64(streams))

	var busy, wait sim.Duration
	var seq, random, rmw, full, ios int64
	disks := 0
	for _, a := range lr.last.arrays {
		as := a.Stats()
		rmw, full, ios = rmw+as.RMWStripes, full+as.FullStripes, ios+as.DiskIOs
		for _, d := range as.Disk {
			busy, wait = busy+d.BusyTime, wait+d.WaitTime
			seq, random = seq+d.SeqAccesses, random+d.RandAccesses
			disks++
		}
	}
	// every spindle is busy against its own engine's window: the shared
	// serving window for shards, each lane's own for back-to-back engines
	spindleWindow := float64(lr.last.windowUS) * float64(disks)
	if lr.s.kind != kindServe {
		spindleWindow /= engines
	}
	lr.set("raid.rmw_pct", pct(float64(rmw), float64(rmw+full)))
	lr.set("raid.disk_ios_per_req", ratio(float64(ios), float64(lr.last.requests)))
	lr.set("disk.sim_util_pct", pct(float64(busy), spindleWindow))
	lr.set("disk.sim_wait_share_pct", pct(float64(wait), float64(wait+busy)))
	lr.set("disk.seq_pct", pct(float64(seq), float64(seq+random)))

	tierAds := lr.gauge("globalfp_ads_queued") + lr.gauge("globalfp_ads_dropped")
	lr.set("globalfp.ads_per_req", ratio(tierAds, lr.n))
	lr.set("globalfp.ads_dropped_pct", pct(lr.gauge("globalfp_ads_dropped"), tierAds))
	lr.set("globalfp.dups_detected", lr.gauge("globalfp_dups_detected"))
	lr.set("globalfp.hints_broadcast", lr.gauge("globalfp_hints_broadcast"))
	lr.set("globalfp.remaps_applied", lr.gauge("globalfp_remaps_applied"))
	lr.set("globalfp.table_entries", lr.gauge("globalfp_table_entries"))
	paused := lr.gauge("bgdedup_paused_busy") + lr.gauge("bgdedup_paused_load")
	lr.set("bgdedup.scanned_blocks", lr.gauge("bgdedup_scanned_blocks"))
	lr.set("bgdedup.reclaimed_blocks", lr.gauge("bgdedup_reclaimed_blocks"))
	lr.set("bgdedup.paused_pct", pct(paused, paused+lr.gauge("bgdedup_steps")))
}

// serving reports the serving layer: the last traced pass's own
// figures, then its extra passes — three more rates, a null-engine
// server, a single-core pass, and (serve-tier) the tier switched off.
func (lr *layerRun) serving(sd *serveDriver) {
	last, n, whole := &lr.last, lr.n, int(lr.n)
	lr.set("server.new_ms", ms(last.newWall))
	lr.set("server.submit_ns_per_req", float64(last.submitWall.Nanoseconds())/n)
	lr.set("server.close_ms", ms(last.closeWall))
	var batches, most int64
	for _, p := range last.perShard {
		batches += p.Batches
		most = max(most, p.Completed)
	}
	lr.set("server.reqs_per_batch", ratio(float64(last.completed), float64(batches)))
	lr.set("server.shard_skew", ratio(float64(most)*serveShards, float64(last.completed)))
	if h := last.snap.Histograms["phase_queue_wait_us"]; h != nil {
		lr.set("server.sim_queue_wait_mean_us", h.Mean())
	}
	lr.set("server.shed", float64(last.shed))
	failed, _ := lr.labeled("server_failed")
	retries, _ := lr.labeled("server_retries")
	lr.set("server.failed", failed)
	lr.set("server.retries", retries)
	lr.set("server.route_ns", routeNS(lr.in))

	for _, rate := range []float64{500, 1500, 1800} {
		at := &samples{}
		p, _ := sd.doPass(rate, serveOpts{}, at)
		lr.rec.count(&p, fmt.Sprintf("pass at %g req/s", rate))
		sort.Float64s(at.sojournUS)
		lr.set(fmt.Sprintf("server.sojourn_p99_ms.r%g", rate), percentile(at.sojournUS, 99)/1000)
	}

	collect()
	null := sd.submitPass(serveRate, whole, serveOpts{null: true})
	lr.set("server.null_ns_per_req", float64(null.use.wall.Nanoseconds())/n)
	lr.set("server.null_allocs_per_req", float64(null.use.mallocs)/n)
	// process CPU minus engine spans would be the direct figure, but
	// spans are wall time and hold whatever a shard worker spent
	// descheduled; the null server's CPU is the serving layer's alone
	lr.set("server.offengine_cpu_us_per_req", float64(null.use.cpu.Nanoseconds())/n/1000)

	collect()
	runtime.GOMAXPROCS(1)
	one := sd.submitPass(serveRate, whole, serveOpts{})
	runtime.GOMAXPROCS(lr.o.procs)
	lr.rec.count(&one, "single-core pass")
	lr.set("server.parallel_speedup", ratio(one.use.wall.Seconds(), lr.offMed))

	if lr.s.tier {
		collect()
		tcOff := newTracer()
		noTier := sd.submitPass(serveRate, whole, serveOpts{tc: tcOff, noTier: true})
		lr.rec.count(&noTier, "tier-off pass")
		onNS, onN := lr.tc.total(spanEngineWrite, -1)
		offNS, offN := tcOff.total(spanEngineWrite, -1)
		lr.set("globalfp.engine_ns_delta", ratio(float64(onNS), float64(onN))-ratio(float64(offNS), float64(offN)))
		lr.set("globalfp.settle_ms", ms(last.closeWall-noTier.closeWall))
	}
}

// ladder runs the layer ladder and its isolated drivers (source L) and
// holds their sum against the engine's own span.
func (lr *layerRun) ladder() {
	s, in, n := lr.s, lr.in, lr.n
	if s.kind == kindCDC {
		gear, seq, mat := cdcRungs(in)
		lr.set("cdc.gear_mbps", gear)
		lr.set("cdc.seqcdc_mbps", seq)
		lr.set("cdc.materialize_mbps", mat)
	} else {
		ns, allocs := chunkRung(in)
		lr.set("chunk.split_fp_ns_per_req", ns)
		lr.set("chunk.allocs_per_req", allocs)
	}
	overhead := lapOverhead()
	collect()
	var keep *tracer
	if lr.o.spansOut != "" {
		keep = newTracer()
		lr.tracers = append(lr.tracers, keep)
		keep.beginPass(spanLadder)
	}
	l := newLadder(in, keep)
	l.run()
	if keep != nil {
		keep.endPass()
	}
	// net is a rung's time with the clock reads taken back out
	net := func(r rung) float64 {
		c := l.cost[r]
		return max(0, float64(c.ns)-overhead*float64(c.spans))
	}
	perOp := func(r rung) float64 { return ratio(net(r), float64(l.cost[r].ops)) }
	var sum float64
	for r := rung(0); r < rungGlue; r++ {
		sum += net(r)
	}
	lookup, insert := "icache.lookup_ns", "icache.insert_ns"
	if s.stream {
		lookup, insert = "icache.stream_lookup_ns", "icache.stream_insert_ns"
	}
	lr.set(lookup, perOp(rungLookup))
	lr.set(insert, perOp(rungInsert))
	lr.set("icache.readhit_ns", perOp(rungReadHit))
	lr.set("icache.readinsert_ns", perOp(rungReadInsert))
	lr.set("icache.purge_ns", perOp(rungPurge))
	lr.set("icache.tick_us", ratio(net(rungTick), float64(l.ticks))/1000)
	lr.set("core.classify_ns_per_req", perOp(rungClassify))
	lr.set("maptable.set_ns", perOp(rungMapSet))
	lr.set("maptable.lookup_ns", perOp(rungMapLookup))
	lr.set("maptable.sets_per_req", float64(l.cost[rungMapSet].ops)/n)
	lr.set("maptable.load_ms", l.loadMS())
	lr.set("nvram.journal_bytes_per_write", l.journalBytesPerWrite())
	lr.set("alloc.alloc_ns", perOp(rungAlloc))
	lr.set("alloc.free_ns", perOp(rungFree))
	lr.set("raid.write_ns", perOp(rungRaidWrite))
	lr.set("raid.read_ns", perOp(rungRaidRead))
	lr.set("locality.record_ns", perOp(rungRecord))
	lr.set("locality.apportion_us", perOp(rungApportion)/1000)
	getHit, putEvict, probeGet, probePut := l.cacheRungs()
	lr.set("cache.lru_get_hit_ns", getHit)
	lr.set("cache.lru_put_evict_ns", putEvict)
	lr.set("probe.get_ns", probeGet)
	lr.set("probe.put_ns", probePut)
	lr.set("globalfp.advertise_ns", l.advertiseNS())
	lr.set("metrics.observe_ns", l.observeNS())

	// The engine's span per request, less the decorator's own clock
	// reads. The ladder runs one chunker (gear), so on cdc-shifted it is
	// held against that engine alone.
	lane := -1
	if s.kind == kindCDC {
		lane = 0
	}
	wNS, wN := lr.tc.total(spanEngineWrite, lane)
	rNS, rN := lr.tc.total(spanEngineRead, lane)
	engPerReq := max(0, float64(wNS+rNS)-overhead*float64(wN+rN)) / n
	st := lr.last.st
	lr.set("ladder.sum_ns_per_req", sum/n)
	lr.set("ladder.residual_pct", pct(engPerReq-sum/n, engPerReq))
	lr.set("ladder.removed_pct_delta", pct(float64(l.removed), float64(l.writes))-pct(float64(st.WritesRemoved), float64(st.Writes)))
}

// chunkRung times the fixed-4K split + fingerprint stage alone, over
// every write of the trace, and counts its allocations.
func chunkRung(in *input) (nsPerReq, allocsPerReq float64) {
	hash := chunk.NewHashEngine(chunk.SyntheticFingerprinter{}, 1)
	var chs []chunk.Chunk
	m := startMeter()
	for i := range in.tr.Requests {
		if r := &in.tr.Requests[i]; r.Op == trace.Write {
			chs = chunk.SplitInto(chs, r.Content, nil, false)
			hash.FingerprintAll(chs)
		}
	}
	u := m.stop()
	w := float64(in.writes)
	return ratio(float64(u.wall.Nanoseconds()), w), ratio(float64(u.mallocs), w)
}
