// Tests live in bgdedup_test so they can drive the scanner through the
// real engines and the serving layer (internal/experiments imports
// bgdedup, so an internal test package would cycle).
package bgdedup_test

import (
	"strconv"
	"sync"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chaos"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/globalfp"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

func testConfig(perDisk uint64) engine.Config {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(perDisk))
	}
	return engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
		NVRAMBytes:  1 << 22,
	}
}

func seq(from, n int) []chunk.ContentID {
	ids := make([]chunk.ContentID, n)
	for i := range ids {
		ids[i] = chunk.ContentID(from + i)
	}
	return ids
}

func write(t *testing.T, e engine.Engine, at sim.Time, lba uint64, ids []chunk.ContentID) {
	t.Helper()
	if _, err := e.Write(&trace.Request{Time: at, Op: trace.Write, LBA: lba, N: len(ids), Content: ids}); err != nil {
		t.Fatalf("write lba %d: %v", lba, err)
	}
}

// progress reads the scanner's counters the way an operator would: from
// the engine's registry.
func progress(e engine.Engine) map[string]int64 { return e.Metrics().Snapshot().Gauges }

func checkContent(t *testing.T, e engine.Engine, lba uint64, want chunk.ContentID) {
	t.Helper()
	got, ok := e.ReadContent(lba)
	if !ok || got != uint64(want) {
		t.Fatalf("lba %d: content %d,%v want %d", lba, got, ok, want)
	}
}

// A substrate runs one background task. Post-Process's scan queue is
// one: a scanner attached over it would displace it (the queue would
// never drain again), so Attach refuses, as it does twice on one engine.
func TestAttachRefusesOccupiedBackground(t *testing.T) {
	pp := experiments.NewEngine(experiments.PostProcess, testConfig(1<<14))
	if _, ok := bgdedup.Attach(pp, bgdedup.Params{}); ok {
		t.Fatal("Attach displaced Post-Process's scan queue")
	}
	e := core.NewSelectDedupe(testConfig(1 << 14))
	if _, ok := bgdedup.Attach(e, bgdedup.Params{}); !ok {
		t.Fatal("Attach refused Select-Dedupe")
	}
	if _, ok := bgdedup.Attach(e, bgdedup.Params{}); ok {
		t.Fatal("second scanner attached over the first")
	}
}

// TestFlushReclaimsIntentionalDuplicates is the core out-of-line dedup
// property: a category-2 request (too few duplicate chunks to dedupe
// inline) writes its whole body fresh, leaving duplicate physical
// copies on disk; the scanner's sweep merges them back to one canonical
// copy, frees the rest, and the logical view is unchanged.
func TestFlushReclaimsIntentionalDuplicates(t *testing.T) {
	e := core.NewSelectDedupe(testConfig(1 << 14))
	_, ok := bgdedup.Attach(e, bgdedup.Params{})
	if !ok {
		t.Fatal("Attach refused Select-Dedupe")
	}

	first := seq(1, 8)
	write(t, e, 0, 0, first) // 8 unique blocks, indexed inline
	// 2 of 8 chunks duplicate — below the threshold (3), so Select-
	// Dedupe classifies Cat2 and writes all 8 fresh for sequentiality
	second := append([]chunk.ContentID{1, 2}, seq(9, 6)...)
	write(t, e, 1000, 100, second)
	if got := e.UsedBlocks(); got != 16 {
		t.Fatalf("used %d blocks before scan, want 16 (Cat2 must not dedupe inline)", got)
	}

	e.Flush(sim.Time(10 * sim.Second))

	st := progress(e)
	if st["bgdedup_reclaimed_blocks"] != 2 {
		t.Fatalf("reclaimed %d blocks, want 2 (stats %+v)", st["bgdedup_reclaimed_blocks"], st)
	}
	if st["bgdedup_duplicate_blocks"] != 2 || st["bgdedup_remapped_lbas"] < 2 {
		t.Fatalf("dups=%d remapped=%d, want 2 and >=2", st["bgdedup_duplicate_blocks"], st["bgdedup_remapped_lbas"])
	}
	if got := e.UsedBlocks(); got != 14 {
		t.Fatalf("used %d blocks after scan, want 14", got)
	}
	for i, id := range first {
		checkContent(t, e, uint64(i), id)
	}
	for i, id := range second {
		checkContent(t, e, 100+uint64(i), id)
	}
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepReadsAreNotSwapIns: a scanner-only run — Select-Dedupe's
// fixed iCache swaps nothing in — reports 0 swap-in I/Os; the sweep's
// reads and the merges' are counted as background reads.
func TestSweepReadsAreNotSwapIns(t *testing.T) {
	e := core.NewSelectDedupe(testConfig(1 << 14))
	if _, ok := bgdedup.Attach(e, bgdedup.Params{}); !ok {
		t.Fatal("Attach refused Select-Dedupe")
	}
	write(t, e, 0, 0, seq(1, 8))
	write(t, e, 1000, 100, append([]chunk.ContentID{1, 2}, seq(9, 6)...))
	e.Flush(sim.Time(10 * sim.Second))

	st, scans := e.Stats(), progress(e)["bgdedup_scan_ios"]
	if st.SwapInIOs != 0 {
		t.Fatalf("%d swap-in I/Os in a scanner-only run, want 0", st.SwapInIOs)
	}
	if scans == 0 || st.BackgroundIOs < scans {
		t.Fatalf("%d background reads for %d sweep reads, want at least the sweep's", st.BackgroundIOs, scans)
	}
}

// TestIdleGateDefersUnderBacklog: the scanner must not issue background
// I/O while the array still has queued foreground work.
func TestIdleGateDefersUnderBacklog(t *testing.T) {
	e := core.NewSelectDedupe(testConfig(1 << 14))
	s, _ := bgdedup.Attach(e, bgdedup.Params{})
	s.SetPace(sim.Millisecond, 0)

	// queue several large writes back to back: the array stays busy
	// well past their submission times
	for i := 0; i < 4; i++ {
		write(t, e, sim.Time(2000+i), uint64(i*64), seq(1000+i*64, 32))
	}
	before := progress(e)
	s.Tick(3000) // past the step interval, but the disks have backlog
	after := progress(e)
	if after["bgdedup_paused_busy"] != before["bgdedup_paused_busy"]+1 {
		t.Fatalf("pausedBusy %d -> %d, want one deferral", before["bgdedup_paused_busy"], after["bgdedup_paused_busy"])
	}
	if after["bgdedup_steps"] != before["bgdedup_steps"] {
		t.Fatalf("scanner stepped under backlog (%d -> %d)", before["bgdedup_steps"], after["bgdedup_steps"])
	}
}

// TestScanFaultSkipsExtentWithoutRemap: a typed read fault during the
// sweep must skip the extent leaving every mapping untouched, and a
// later healthy sweep must pick the work back up. RAID0 over one disk
// so the array cannot reconstruct around the injected errors.
func TestScanFaultSkipsExtentWithoutRemap(t *testing.T) {
	d := disk.New(disk.DefaultParams(1 << 14))
	cfg := engine.Config{
		Array:       raid.New(raid.RAID0, []*disk.Disk{d}, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
		NVRAMBytes:  1 << 22,
	}
	// every access in [1s, 2s) fails: the scanner's reads inside the
	// window are faulted, foreground writes before it are clean
	cfg.Array.SetInjector(fault.NewInjector(fault.Schedule{
		Transients: []fault.TransientWindow{{
			Disk: -1, From: sim.Time(sim.Second), Until: sim.Time(2 * sim.Second), PerMille: 1000,
		}},
	}, 1))
	e := core.NewSelectDedupe(cfg)
	bgdedup.Attach(e, bgdedup.Params{})

	first := seq(1, 8)
	second := append([]chunk.ContentID{1, 2}, seq(9, 6)...)
	write(t, e, 0, 0, first)
	write(t, e, 1000, 100, second)

	e.Flush(sim.Time(sim.Second) + 1) // inside the fault window
	st := progress(e)
	if st["bgdedup_skipped_extents"] == 0 {
		t.Fatalf("faulted sweep skipped no extents (stats %+v)", st)
	}
	if st["bgdedup_reclaimed_blocks"] != 0 || e.UsedBlocks() != 16 {
		t.Fatalf("faulted sweep changed state: reclaimed=%d used=%d", st["bgdedup_reclaimed_blocks"], e.UsedBlocks())
	}
	for i, id := range second {
		checkContent(t, e, 100+uint64(i), id)
	}
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	e.Flush(sim.Time(3 * sim.Second)) // past the window: retry succeeds
	if st := progress(e); st["bgdedup_reclaimed_blocks"] != 2 {
		t.Fatalf("healthy retry reclaimed %d, want 2", st["bgdedup_reclaimed_blocks"])
	}
}

// TestSequentialCopySurvivesMerge: when two physical copies of a block
// exist, the scanner keeps the one preserving on-disk sequentiality —
// even if the isolated copy was scanned (and registered) first.
func TestSequentialCopySurvivesMerge(t *testing.T) {
	cfg := testConfig(1 << 14)
	cfg.Threshold = 100 // nothing dedupes inline: every write is fresh
	e := core.NewSelectDedupe(cfg)
	bgdedup.Attach(e, bgdedup.Params{})

	write(t, e, 0, 100, seq(1, 1))  // lone copy of content 1, lower PBA
	write(t, e, 1000, 0, seq(1, 8)) // sequential run [1..8] at lba 0
	e.Flush(sim.Time(10 * sim.Second))

	m := e.Base().Map
	p0, ok0 := m.Lookup(0)
	p100, ok100 := m.Lookup(100)
	p1, ok1 := m.Lookup(1)
	if !ok0 || !ok100 || !ok1 {
		t.Fatal("mappings lost")
	}
	if p100 != p0 {
		t.Fatalf("copies not merged: lba0->%d lba100->%d", p0, p100)
	}
	if p1 != p0+1 {
		t.Fatalf("merge broke sequentiality: lba0->%d lba1->%d", p0, p1)
	}
	if st := progress(e); st["bgdedup_seq_swaps"] == 0 {
		t.Fatalf("canonical kept without a sequentiality swap (stats %+v)", st)
	}
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMidPassIsIdempotent: crash after a partial sweep, rebuild
// from the NVRAM journal, then sweep again — no block leaks, no double
// free, and the repeated pass converges to the same reclaimed state.
func TestRecoveryMidPassIsIdempotent(t *testing.T) {
	e := core.NewSelectDedupe(testConfig(1 << 14))
	s, _ := bgdedup.Attach(e, bgdedup.Params{BlocksPerSec: 4_000_000})
	s.SetPace(sim.Millisecond, 0)

	first := seq(1, 8)
	second := append([]chunk.ContentID{1, 2}, seq(9, 6)...)
	third := append([]chunk.ContentID{3, 4}, seq(15, 6)...)
	write(t, e, 0, 0, first)
	write(t, e, 1000, 100, second)
	// a late idle tick lets the scanner run a partial pass over the
	// early region before the third write lands more duplicates
	s.Tick(sim.Time(5 * sim.Second))
	write(t, e, sim.Time(6*sim.Second), 200, third)

	if _, err := e.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatalf("inconsistent straight after recovery: %v", err)
	}
	for i, id := range second {
		checkContent(t, e, 100+uint64(i), id)
	}

	e.Flush(sim.Time(20 * sim.Second))
	if st := progress(e); st["bgdedup_reclaimed_blocks"] == 0 {
		t.Fatalf("post-recovery sweep reclaimed nothing (stats %+v)", st)
	}
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i, id := range first {
		checkContent(t, e, uint64(i), id)
	}
	for i, id := range second {
		checkContent(t, e, 100+uint64(i), id)
	}
	for i, id := range third {
		checkContent(t, e, 200+uint64(i), id)
	}
}

// drive runs a closed-loop multi-client workload against srv, feeding
// the oracle, and closes the server.
func drive(t *testing.T, srv *server.Server, oracle *chaos.Oracle, reqs []trace.Request, clients int, gapUS int64) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range reqs {
				r := &reqs[i]
				if srv.Shard(r.LBA)%clients != c {
					continue
				}
				req := server.Request{Time: int64(i) * gapUS, Op: r.Op, LBA: r.LBA}
				if r.Op == trace.Read {
					req.Chunks = r.N
				} else {
					req.Content = r.Content
				}
				res, err := srv.Do(&req)
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if r.Op == trace.Write {
					if res.Err == nil {
						oracle.RecordWrite(&req, res.Shard)
					} else {
						oracle.RecordFailedWrite(&req, res.Shard, res.Retries > 0 || res.Service > 0)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScannerForegroundRace is the -race property test: four
// shards serve concurrent clients while each engine runs an aggressive
// background scanner. The m-to-1 sharing invariant, the allocator's
// no-double-free audit, and read-back integrity must all hold — and the
// scanner must actually have reclaimed capacity.
func TestConcurrentScannerForegroundRace(t *testing.T) {
	prof, ok := workload.ByName("mail")
	if !ok {
		t.Fatal("mail profile missing")
	}
	const scale = 0.02
	tr, _ := workload.Generate(prof, scale)
	reqs := tr.Requests
	if len(reqs) > 4000 {
		reqs = reqs[:4000]
	}

	const shards, clients = 4, 4
	srv, err := server.New(server.Config{
		Shards: shards,
		NewEngine: func(shard int) engine.Engine {
			cfg := experiments.BuildConfig(prof, scale)
			e := experiments.NewEngine(experiments.POD, cfg)
			if s, ok := bgdedup.Attach(e, bgdedup.Params{}); ok {
				s.SetPace(sim.Millisecond, 10*sim.Millisecond) // scan even in short gaps
			} else {
				t.Error("attach failed")
			}
			return e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := chaos.NewOracle(srv.Shard)
	drive(t, srv, oracle, reqs, clients, 100)

	viol, checked := oracle.Check(srv.ReadContent)
	if len(viol) > 0 {
		t.Fatalf("%d integrity violations (first: %s)", len(viol), viol[0])
	}
	if checked == 0 {
		t.Fatal("oracle verified nothing")
	}
	snap := srv.Stats()
	g := snap.Metrics.Gauges
	if g["bgdedup_reclaimed_blocks"] == 0 {
		t.Fatal("scanner reclaimed nothing across the run")
	}
	if got := uint64(g["alloc_used_blocks"]); got != snap.UsedBlocks {
		t.Fatalf("alloc_used_blocks gauge %d != snapshot used %d", got, snap.UsedBlocks)
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosScenarioBgdedupRecovers runs the chaos "bgdedup" scenario
// end to end in-process: scanner active under latent sectors, a mid-run
// disk failure, and a transient storm; then a whole-node crash. The
// oracle must pass before and after recovery and no shard may leak or
// double-use an extent — the interrupted pass leaves no trace beyond
// its journaled remaps.
func TestChaosScenarioBgdedupRecovers(t *testing.T) {
	prof, ok := workload.ByName("mail")
	if !ok {
		t.Fatal("mail profile missing")
	}
	const scale = 0.02
	tr, _ := workload.Generate(prof, scale)
	reqs := tr.Requests
	if len(reqs) > 3000 {
		reqs = reqs[:3000]
	}
	const shards, clients = 2, 2
	const gapUS = 200
	horizon := sim.Time(int64(len(reqs)) * gapUS)

	srv, err := server.New(server.Config{
		Shards: shards,
		NewEngine: func(shard int) engine.Engine {
			cfg := experiments.BuildConfig(prof, scale)
			sched, berr := chaos.Build("bgdedup", cfg.Array.NumDisks(), cfg.Array.PerDiskBlocks(),
				horizon, 7+uint64(shard))
			if berr != nil {
				t.Errorf("build scenario: %v", berr)
				return nil
			}
			cfg.Array.SetInjector(fault.NewInjector(sched, cfg.Array.NumDisks()))
			e := experiments.NewEngine(experiments.POD, cfg)
			s, _ := bgdedup.Attach(e, bgdedup.Params{})
			s.SetPace(sim.Millisecond, 0)
			return e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := chaos.NewOracle(srv.Shard)
	drive(t, srv, oracle, reqs, clients, gapUS)

	if viol, _ := oracle.Check(srv.ReadContent); len(viol) > 0 {
		t.Fatalf("%d violations before crash (first: %s)", len(viol), viol[0])
	}
	if _, err := srv.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	viol, checked := oracle.Check(srv.ReadContent)
	if len(viol) > 0 {
		t.Fatalf("%d violations after recovery (first: %s)", len(viol), viol[0])
	}
	if checked == 0 {
		t.Fatal("oracle verified nothing after recovery")
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestScannerForgetsFreedBlocks: the canonical table (Base.Exact)
// keeps each key once and, on a free, re-derives the fingerprint from
// the freed block's residual content to find the entry to drop. On a
// seeded trace over three shards — the cursor sweep, overwrites (a
// second pass over the trace's first writes among them), and the tier's
// cross-shard folds — the table is held, after every request
// and every settlement round, to the model that drops whatever entry
// names a freed block: no entry names a block that no longer holds its
// content, and no entry whose block still holds it is dropped (a merge
// may re-point it to the copy it keeps, never delete it).
func TestScannerForgetsFreedBlocks(t *testing.T) {
	prof, ok := workload.ByName("mail")
	if !ok {
		t.Fatal("mail profile missing")
	}
	const scale, shards = 0.02, 3
	tr, _ := workload.Generate(prof, scale)
	reqs := tr.Requests
	if len(reqs) > 4000 {
		reqs = reqs[:4000]
	}

	tier, err := globalfp.NewTier(shards, globalfp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var engs []*engine.Pipeline
	var agents []*globalfp.Agent
	var scanners []*bgdedup.Scanner
	for i := 0; i < shards; i++ {
		e := core.NewPOD(experiments.BuildConfig(prof, scale))
		s, ok := bgdedup.Attach(e, bgdedup.Params{})
		if !ok {
			t.Fatal("attach failed")
		}
		s.SetPace(sim.Millisecond, 10*sim.Millisecond)
		engs, scanners = append(engs, e), append(scanners, s)
		agents = append(agents, globalfp.New(e.Base(), tier, i))
	}

	prev := make([]map[chunk.Fingerprint]alloc.PBA, shards)
	forgotten := 0
	check := func(step string, i int) {
		b := engs[i].Base()
		cur := make(map[chunk.Fingerprint]alloc.PBA, b.Exact.Len())
		b.Exact.Each(func(fp chunk.Fingerprint, can alloc.PBA) bool {
			if id, live := b.Store.Read(can); !live || id.Fingerprint() != fp {
				t.Fatalf("%s: shard %d: an entry names block %d, which no longer holds its content", step, i, can)
			}
			cur[fp] = can
			return true
		})
		for fp, can := range prev[i] {
			if _, ok := cur[fp]; ok {
				continue
			}
			if id, live := b.Store.Read(can); live && id.Fingerprint() == fp {
				t.Fatalf("%s: shard %d: the entry naming live block %d was dropped", step, i, can)
			}
			forgotten++
		}
		prev[i] = cur
	}

	var now sim.Time
	for i := range reqs {
		r := reqs[i]
		now = r.Time
		sh := int(r.LBA >> 10 % shards)
		var err error
		if r.Op == trace.Write {
			_, err = engs[sh].Write(&r)
		} else {
			_, err = engs[sh].Read(&r)
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		check("request "+strconv.Itoa(i), sh)
	}
	// Once every scanner has indexed what is there, the trace's first
	// writes are overwritten with content nothing has written: the
	// overwrites free blocks the canonical table names.
	for i, e := range engs {
		e.Flush(now)
		check("flush before the overwrites", i)
	}
	for i := range reqs[:len(reqs)/4] {
		r := reqs[i]
		if r.Op != trace.Write {
			continue
		}
		now = now.Add(sim.Millisecond)
		r.Time, r.Content = now, make([]chunk.ContentID, r.N)
		for k := range r.Content {
			r.Content[k] = chunk.ContentID(1<<50 + i<<10 + k)
		}
		sh := int(r.LBA >> 10 % shards)
		if _, err := engs[sh].Write(&r); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
		check("overwrite "+strconv.Itoa(i), sh)
	}
	for round := 0; round < 64; round++ {
		moved := 0
		for _, a := range agents {
			moved += a.DrainAll(now)
		}
		for i := range engs {
			check("settlement round "+strconv.Itoa(round), i)
		}
		if moved == 0 && tier.Backlog() == 0 {
			break
		}
	}
	var dups, reclaimed, folds int64
	for i, e := range engs {
		e.Flush(now)
		check("flush", i)
		if err := e.Base().CheckConsistency(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		_, _, d, _, r := scanners[i].Core().Counters()
		dups, reclaimed = dups+d, reclaimed+r
		folds += progress(e)["globalfp_remaps_applied"]
	}
	if forgotten == 0 || dups == 0 || reclaimed == 0 || folds == 0 {
		t.Fatalf("trace exercised too little: %d entries forgotten, %d duplicates, %d reclaimed, %d tier folds", forgotten, dups, reclaimed, folds)
	}
}
