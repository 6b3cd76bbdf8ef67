package server

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// Recovery is one function (Server.recover), so it is checked as one:
// the same populated 4-shard server is taken through whole-node
// recovery and through a crash/rejoin of every failure domain, and both
// must give back the reference LBA → content map — and, without the
// tier, exactly what each engine's own Pipeline.CrashAndRecover gives.

const recoveryShards = 4

// recoveryWorkload is a seeded write stream over a few granules per
// shard: eight-chunk objects from a small pool (so the same content
// lands on several LBAs, on one shard and across shards), prefixes of
// them (partial redundancy), unique content, and plenty of overwrites
// (the slots are few), with the LBA → content map it must leave behind.
// No request crosses a granule, so the shard that served an LBA is the
// one ReadContent asks.
func recoveryWorkload(seed int64) ([]Request, map[uint64]chunk.ContentID) {
	const requests, granules, slots, objects, objChunks = 1500, 4 * recoveryShards, 16, 40, 8
	rng := rand.New(rand.NewSource(seed))
	ref := make(map[uint64]chunk.ContentID)
	reqs := make([]Request, requests)
	unique := chunk.ContentID(1 << 20)
	for i := range reqs {
		lba := uint64(rng.Intn(granules))*DefaultGranChunks + uint64(rng.Intn(slots))*objChunks
		ids := make([]chunk.ContentID, 1+rng.Intn(objChunks))
		obj := rng.Intn(objects)
		fresh := rng.Intn(4) == 0
		for j := range ids {
			if fresh {
				unique++
				ids[j] = unique
			} else {
				ids[j] = chunk.ContentID(1000 + obj*objChunks + j)
			}
			ref[lba+uint64(j)] = ids[j]
		}
		reqs[i] = Request{Time: int64(i+1) * 500, Op: trace.Write, LBA: lba, Content: ids}
	}
	return reqs, ref
}

// recoveryServer builds the server under test and serves reqs through
// it, one at a time, so every shard sees its requests in stream order.
// It returns each request's start time, the timestamp its shard's queue
// handed the engine: a bare engine given the same requests at those
// times is driven identically.
func recoveryServer(t *testing.T, tier bool, reqs []Request) (*Server, []sim.Time) {
	t.Helper()
	newEngine := selectDedupeFactory(workload.WebVM())
	if tier {
		newEngine = globalFPFactory(workload.WebVM())
	}
	srv, err := New(Config{Shards: recoveryShards, GlobalFP: tier, NewEngine: newEngine})
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]sim.Time, len(reqs))
	for i := range reqs {
		res, err := srv.Do(&reqs[i])
		if err != nil || res.Err != nil || res.Retries != 0 {
			t.Fatalf("request %d: %v / %v, %d retries", i, err, res.Err, res.Retries)
		}
		starts[i] = sim.Time(res.Start)
	}
	return srv, starts
}

// wholeNode is path (a): Close, then CrashAndRecover.
func wholeNode(t *testing.T, srv *Server) int {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := srv.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// shardByShard is path (b): every shard crashed and rejoined, one at a
// time in a seeded random order, then Close.
func shardByShard(t *testing.T, srv *Server, seed int64) int {
	t.Helper()
	total := 0
	for _, i := range rand.New(rand.NewSource(seed)).Perm(recoveryShards) {
		if err := srv.CrashShard(i); err != nil {
			t.Fatal(err)
		}
		n, err := srv.RecoverShard(i)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if down := srv.DownShards(); len(down) != 0 {
		t.Fatalf("DownShards = %v after every rejoin", down)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return total
}

// checkReadBack compares every written LBA against the reference.
func checkReadBack(t *testing.T, what string, read func(lba uint64) (uint64, bool), ref map[uint64]chunk.ContentID) {
	t.Helper()
	for lba, want := range ref {
		if got, ok := read(lba); !ok || got != uint64(want) {
			t.Fatalf("%s: lba %d reads %d,%v want %d", what, lba, got, ok, want)
		}
	}
}

// remoteRefs counts the (shard, canonical) cross-shard references.
func remoteRefs(srv *Server) int {
	defer srv.lockAll()()
	n := 0
	srv.eachRemoteRef(func(int, alloc.PBA) { n++ })
	return n
}

func TestRecoveryPathsAgreeWithoutTier(t *testing.T) {
	reqs, ref := recoveryWorkload(7)

	node, starts := recoveryServer(t, false, reqs)
	nodeReplayed := wholeNode(t, node)

	rejoin, _ := recoveryServer(t, false, reqs)
	rejoinReplayed := shardByShard(t, rejoin, 11)

	// (c): the same factory's engines, each given exactly its shard's
	// requests, recovered through the engine's own entry point.
	engines := make([]*engine.Pipeline, recoveryShards)
	for i := range engines {
		engines[i] = selectDedupeFactory(workload.WebVM())(i).(*engine.Pipeline)
	}
	for i := range reqs {
		tr := reqs[i].Trace()
		tr.Time = starts[i]
		if _, err := engines[node.Shard(tr.LBA)].Write(&tr); err != nil {
			t.Fatalf("engine request %d: %v", i, err)
		}
	}
	engReplayed, engUsed := 0, uint64(0)
	for i, e := range engines {
		n, err := e.CrashAndRecover()
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		engReplayed += n
		engUsed += e.UsedBlocks()
	}

	if nodeReplayed == 0 || nodeReplayed != rejoinReplayed || nodeReplayed != engReplayed {
		t.Fatalf("records replayed: whole-node %d, shard-by-shard %d, per-engine %d", nodeReplayed, rejoinReplayed, engReplayed)
	}
	nodeUsed, rejoinUsed := node.Stats().UsedBlocks, rejoin.Stats().UsedBlocks
	if nodeUsed != engUsed || rejoinUsed != engUsed {
		t.Fatalf("used blocks: whole-node %d, shard-by-shard %d, per-engine %d", nodeUsed, rejoinUsed, engUsed)
	}
	checkReadBack(t, "whole-node", node.ReadContent, ref)
	checkReadBack(t, "shard-by-shard", rejoin.ReadContent, ref)
	checkReadBack(t, "per-engine", func(lba uint64) (uint64, bool) {
		return engines[node.Shard(lba)].ReadContent(lba)
	}, ref)
	for what, srv := range map[string]*Server{"whole-node": node, "shard-by-shard": rejoin} {
		if err := srv.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := remoteRefs(srv); n != 0 {
			t.Fatalf("%s: %d remote references on a tier-less server", what, n)
		}
	}
}

// With the tier the two paths need not agree block for block —
// settlement after a rejoin may re-grant hinted pins, which the audit's
// "refs or refs+1" rule allows — but both must read back the reference,
// remote-encoded mappings included, and audit clean.
func TestRecoveryPathsAgreeWithTier(t *testing.T) {
	reqs, ref := recoveryWorkload(7)

	node, _ := recoveryServer(t, true, reqs)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if remoteRefs(node) == 0 {
		t.Fatal("settlement left no cross-shard reference: the workload does not exercise the pin walk")
	}
	if n := wholeNode(t, node); n == 0 {
		t.Fatal("whole-node recovery replayed nothing")
	}
	checkReadBack(t, "whole-node", node.ReadContent, ref)
	if err := node.CheckConsistency(); err != nil {
		t.Fatalf("whole-node: %v", err)
	}

	rejoin, _ := recoveryServer(t, true, reqs)
	t.Logf("cross-shard references at the first crash: %d", remoteRefs(rejoin))
	if n := shardByShard(t, rejoin, 11); n == 0 {
		t.Fatal("shard-by-shard recovery replayed nothing")
	}
	checkReadBack(t, "shard-by-shard", rejoin.ReadContent, ref)
	if err := rejoin.CheckConsistency(); err != nil {
		t.Fatalf("shard-by-shard: %v", err)
	}
}

// A shard that cannot load its journal (Native keeps none) fails the
// whole call by name, before phase 3 touches anyone: no shard's
// allocator, store or caches are rebuilt.
func TestRecoverLoadFailureRebuildsNothing(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{Shards: recoveryShards, NewEngine: func(i int) engine.Engine {
		if i == 2 {
			return experiments.NewEngine(experiments.Native, experiments.BuildConfig(prof, testScale))
		}
		return selectDedupeFactory(prof)(i)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*recoveryShards; i++ {
		writeAt(t, srv, int64(i+1)*100, uint64(i)*DefaultGranChunks, chunk.ContentID(i+1))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	type substrates struct{ alloc, ic any }
	before := make([]substrates, recoveryShards)
	for i, sh := range srv.shards {
		before[i] = substrates{sh.base.Alloc, sh.base.IC}
	}
	_, err = srv.CrashAndRecover()
	if err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("CrashAndRecover = %v, want an error naming shard 2", err)
	}
	for i, sh := range srv.shards {
		if (substrates{sh.base.Alloc, sh.base.IC}) != before[i] {
			t.Fatalf("shard %d was rebuilt although shard 2 failed to load", i)
		}
	}
	if _, err := srv.RecoverShard(2); err != nil {
		t.Fatalf("RecoverShard of a live shard = %v, want the no-op", err)
	}
}

// TestDownShardsPastShard63: each shard's down flag is the one source
// of truth, so the report does not stop at a machine word.
func TestDownShardsPastShard63(t *testing.T) {
	srv, err := New(Config{Shards: 80, NewEngine: selectDedupeFactory(workload.WebVM())})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.CrashShard(70); err != nil {
		t.Fatal(err)
	}
	if down := srv.DownShards(); len(down) != 1 || down[0] != 70 {
		t.Fatalf("DownShards = %v, want [70]", down)
	}
	if _, err := srv.RecoverShard(70); err != nil {
		t.Fatal(err)
	}
	if down := srv.DownShards(); len(down) != 0 {
		t.Fatalf("DownShards = %v after the rejoin, want none", down)
	}
}
