package server

import (
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// globalFPFactory builds POD shard engines with the bgdedup scanner
// attached — the configuration the tier's agents wrap, exactly as
// podload arms it.
func globalFPFactory(prof workload.Profile) func(int) engine.Engine {
	return func(int) engine.Engine {
		e := experiments.NewEngine(experiments.POD, experiments.BuildConfig(prof, testScale))
		bgdedup.Attach(e, bgdedup.Params{})
		return e
	}
}

// shardLBAs finds one granule-aligned LBA owned by each shard.
func shardLBAs(s *Server) []uint64 {
	out := make([]uint64, len(s.shards))
	found := 0
	for g := uint64(0); found < len(s.shards); g++ {
		lba := g * DefaultGranChunks
		sid := s.Shard(lba)
		if out[sid] == 0 && (sid != s.Shard(0) || g == 0) {
			out[sid] = lba
			found++
		}
	}
	return out
}

// TestGlobalFPEndToEnd drives the full tier through the serving layer:
// the same content stream written to every shard, settlement at Close,
// the cross-shard audit, content verification through the remote-hop
// ReadContent path, and crash recovery with re-verification.
func TestGlobalFPEndToEnd(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{
		Shards:    4,
		GlobalFP:  true,
		NewEngine: globalFPFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	lbas := shardLBAs(srv)

	// Every shard receives the same content per round — the worst case
	// for LBA sharding (every copy is a cross-shard duplicate) and the
	// best case for the tier.
	const rounds, n = 16, 8
	content := func(round int) []chunk.ContentID {
		ids := make([]chunk.ContentID, n)
		for i := range ids {
			ids[i] = chunk.ContentID(10000 + round*n + i)
		}
		return ids
	}
	at := int64(0)
	for round := 0; round < rounds; round++ {
		for _, base := range lbas {
			at += 1000
			if _, err := srv.Do(&Request{
				Time: at, Op: trace.Write,
				LBA: base + uint64(round*n), Content: content(round),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	snap := srv.Stats()
	g := snap.Metrics.Gauges
	if g["globalfp_hints_installed"] == 0 {
		t.Fatalf("no hints installed: %v", g)
	}
	if g["globalfp_remaps_applied"]+snap.Engine.RemoteDeduped == 0 {
		t.Fatal("tier neither folded a duplicate nor enabled a remote inline dedupe")
	}
	// One physical copy per distinct content across the whole cluster:
	// rounds*n canonical blocks, not shards× that.
	if snap.UsedBlocks != rounds*n {
		t.Fatalf("cluster uses %d blocks, want %d (one canonical per distinct content)", snap.UsedBlocks, rounds*n)
	}

	verify := func() {
		for round := 0; round < rounds; round++ {
			ids := content(round)
			for _, base := range lbas {
				for i := 0; i < n; i++ {
					lba := base + uint64(round*n+i)
					got, ok := srv.ReadContent(lba)
					if !ok || got != uint64(ids[i]) {
						t.Fatalf("lba %d: content %d,%v want %d", lba, got, ok, ids[i])
					}
				}
			}
		}
	}
	verify()

	if _, err := srv.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	verify()
	if err := srv.CheckConsistency(); err != nil {
		t.Fatalf("post-recovery: %v", err)
	}
}

// TestGlobalFPAdLandsBeforeWriteReturns: an advertisement is on the
// tier's table by the time the write that published it returns. So the
// owner's next request grants the hint, and a peer's first write of the
// same content deduplicates inline, however the host schedules the
// shards.
func TestGlobalFPAdLandsBeforeWriteReturns(t *testing.T) {
	srv, err := New(Config{Shards: 2, GlobalFP: true, NewEngine: globalFPFactory(workload.WebVM())})
	if err != nil {
		t.Fatal(err)
	}
	lbas := shardLBAs(srv)
	x := []chunk.ContentID{501, 502, 503, 504, 505, 506, 507, 508}
	do := func(at int64, req Request) {
		t.Helper()
		req.Time = at
		if res, err := srv.Do(&req); err != nil || res.Err != nil {
			t.Fatalf("request at %d: %v %v", at, err, res.Err)
		}
	}
	do(1000, Request{Op: trace.Write, LBA: lbas[0], Content: x})    // the ads queue pin requests at shard 0
	do(2000, Request{Op: trace.Read, LBA: lbas[0], Chunks: len(x)}) // shard 0's tick grants shard 1 the hints
	do(3000, Request{Op: trace.Write, LBA: lbas[1], Content: x})    // shard 1's tick installs them
	if got := srv.Stats().Engine.RemoteDeduped; got != int64(len(x)) {
		t.Fatalf("shard 1 deduplicated %d chunks against shard 0, want %d", got, len(x))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalFPRequiresScanner: a shard agent folds through the shard's
// bgdedup scanner, so a shard without one is refused at New, by name.
func TestGlobalFPRequiresScanner(t *testing.T) {
	prof := workload.WebVM()
	_, err := New(Config{
		Shards:   2,
		GlobalFP: true,
		NewEngine: func(shard int) engine.Engine {
			e := experiments.NewEngine(experiments.POD, experiments.BuildConfig(prof, testScale))
			if shard == 0 {
				bgdedup.Attach(e, bgdedup.Params{})
			}
			return e
		},
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "scanner") {
		t.Fatalf("tier over a shard without a scanner: err = %v, want a refusal naming shard 1", err)
	}
}

// TestGlobalFPRequiresMultipleShards: the tier over one shard is a
// configuration error, surfaced at New.
func TestGlobalFPRequiresMultipleShards(t *testing.T) {
	prof := workload.WebVM()
	if _, err := New(Config{
		Shards:    1,
		GlobalFP:  true,
		NewEngine: globalFPFactory(prof),
	}); err == nil {
		t.Fatal("GlobalFP with one shard accepted")
	}
}

// TestGlobalFPRejectsEnginesWithoutSubstrate: engines that cannot
// expose a Map-table substrate (Native) cannot host a shard agent.
func TestGlobalFPRejectsEnginesWithoutSubstrate(t *testing.T) {
	prof := workload.WebVM()
	if _, err := New(Config{
		Shards:   2,
		GlobalFP: true,
		NewEngine: func(int) engine.Engine {
			return experiments.NewEngine(experiments.Native, experiments.BuildConfig(prof, testScale))
		},
	}); err == nil {
		t.Fatal("GlobalFP over Native engines accepted")
	}
}
