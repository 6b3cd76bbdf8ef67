package server

import (
	"math/rand"
	"testing"

	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// settleSerial is the settlement loop Close ran before its rounds went
// parallel — one shard at a time, in shard order — kept as the
// reference TestSettleConvergesInParallel holds the parallel rounds to.
func settleSerial(s *Server) {
	for i, sh := range s.shards {
		sh.mu.Lock()
		if !sh.down.Load() {
			s.agents[i].ReAdvertise()
		}
		sh.mu.Unlock()
	}
	for round := 0; round < 256; round++ {
		moved := 0
		for i, sh := range s.shards {
			sh.mu.Lock()
			if !sh.down.Load() {
				moved += s.agents[i].DrainAll(sh.lastStart)
			}
			sh.mu.Unlock()
		}
		if moved == 0 && s.tier.Backlog() == 0 {
			return
		}
	}
}

// lossyTier is a shard's tier seat that loses every third advertisement
// of a fingerprint the cluster has already published. No ad is lost in
// production; a lost one stands in for the folds settlement's
// ReAdvertise exists to retry — folds an injected fault aborted, and
// folds whose hint binding a later grant overwrote. The first sighting
// always lands, so which shard owns each content is settled while
// serving and does not depend on the order settlement re-advertises in.
type lossyTier struct {
	engine.Tier
	seen    map[chunk.Fingerprint]bool // shared by the cluster's seats
	n, lost *int
}

func (l lossyTier) Advertise(ads []engine.Ad) {
	kept := make([]engine.Ad, 0, len(ads))
	for _, a := range ads {
		if *l.n++; l.seen[a.FP] && *l.n%3 == 0 {
			*l.lost++
			continue
		}
		l.seen[a.FP] = true
		kept = append(kept, a)
	}
	l.Tier.Advertise(kept)
}

const settleShards, settleChunks = 8, 4

// loadedCluster builds an 8-shard tier server behind lossy seats and
// serves it one seeded request sequence, a request at a time (an
// advertisement lands inside the write that publishes it, so nothing
// depends on goroutine scheduling). Every content group is written
// once on each of a random set of shards, never overwritten: half the
// groups in a burst (the copies land before the owner's grant can, so
// they are duplicates to fold), half scattered through the sequence
// (most deduplicate inline through a hint). Virtual time barely moves,
// so nearly every fold is still queued when the sequence ends. Returns
// the server, the distinct chunks written and the advertisements lost.
func loadedCluster(tb testing.TB, seed int64, groups int) (srv *Server, distinct, lost int) {
	tb.Helper()
	prof := workload.WebVM()
	srv, err := New(Config{
		Shards:   settleShards,
		GlobalFP: true,
		NewEngine: func(int) engine.Engine {
			e := experiments.NewEngine(experiments.SelectDedupe, experiments.BuildConfig(prof, 1))
			bgdedup.Attach(e, bgdedup.Params{})
			return e
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	seen, n := map[chunk.Fingerprint]bool{}, 0
	for _, sh := range srv.shards {
		b := sh.eng.(baseHolder).Base()
		b.SetTier(lossyTier{Tier: b.Tier, seen: seen, n: &n, lost: &lost})
	}

	type write struct{ group, shard int }
	rng := rand.New(rand.NewSource(seed))
	var seq []write
	for g := 0; g < groups; g++ {
		shards := rng.Perm(settleShards)[:1+rng.Intn(settleShards)]
		if g%2 == 0 {
			for _, s := range shards {
				seq = append(seq, write{g, s})
			}
			continue
		}
		for _, s := range shards { // scattered: anywhere in what exists so far
			at := rng.Intn(len(seq) + 1)
			seq = append(seq, write{})
			copy(seq[at+1:], seq[at:])
			seq[at] = write{g, s}
		}
	}
	bases, next := shardLBAs(srv), make([]uint64, settleShards)
	for i, w := range seq {
		ids := make([]chunk.ContentID, settleChunks)
		for k := range ids {
			ids[k] = chunk.ContentID(1 + w.group*settleChunks + k)
		}
		res, err := srv.Do(&Request{Time: int64(i) * 50, Op: trace.Write, LBA: bases[w.shard] + next[w.shard], Content: ids})
		if err != nil || res.Err != nil {
			tb.Fatalf("write %d: %v %v", i, err, res.Err)
		}
		next[w.shard] += settleChunks
	}
	return srv, groups * settleChunks, lost
}

// TestSettleConvergesInParallel settles two identically loaded clusters
// — dropped advertisements to retry, folds still queued — one through
// Close and its parallel rounds, one through the serial reference loop,
// and holds both to the same settled state: the audit passes, nothing
// is left in any inbox, every content is stored once cluster-wide, and
// each shard ends with the same number of blocks either way.
func TestSettleConvergesInParallel(t *testing.T) {
	const groups = 300
	settled := func(serial bool) []uint64 {
		srv, distinct, lost := loadedCluster(t, 42, groups)
		g := srv.Stats().Metrics.Gauges
		if lost == 0 || g["globalfp_fold_backlog"] == 0 || srv.Stats().UsedBlocks <= uint64(distinct) {
			t.Fatalf("nothing to settle: %d ads lost, %d folds queued, %d blocks for %d distinct chunks",
				lost, g["globalfp_fold_backlog"], srv.Stats().UsedBlocks, distinct)
		}
		if serial {
			srv.settleOnce.Do(func() {}) // Close drains the workers and leaves settlement to the reference
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if serial {
			settleSerial(srv)
		}
		if err := srv.CheckConsistency(); err != nil {
			t.Fatalf("serial=%v: %v", serial, err)
		}
		if n := srv.tier.Backlog(); n != 0 {
			t.Fatalf("serial=%v: %d control messages left queued", serial, n)
		}
		snap := srv.Stats()
		g = snap.Metrics.Gauges
		if g["globalfp_hint_overwrites"] != 0 || g["globalfp_fold_backlog"] != 0 {
			t.Fatalf("serial=%v: %d hints overwritten (the hint tables must hold the whole content set for the settled state to be unique), %d folds left queued",
				serial, g["globalfp_hint_overwrites"], g["globalfp_fold_backlog"])
		}
		if snap.UsedBlocks != uint64(distinct) {
			t.Fatalf("serial=%v: cluster settles at %d blocks, want %d (one per distinct chunk)", serial, snap.UsedBlocks, distinct)
		}
		used := make([]uint64, settleShards)
		for i, sh := range srv.shards {
			used[i] = sh.eng.UsedBlocks()
		}
		return used
	}
	parallel, serial := settled(false), settled(true)
	for i := range parallel {
		if parallel[i] != serial[i] {
			t.Fatalf("per-shard blocks differ: parallel rounds %v, serial reference %v", parallel, serial)
		}
	}
}

// BenchmarkSettle8 times Close — the workers' flush, re-advertisement
// and the settlement rounds — on eight agents loaded with one recorded
// backlog. Run it at -cpu 1,2: the rounds are the part a second core
// takes on.
func BenchmarkSettle8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, _, _ := loadedCluster(b, 7, 2000)
		b.StartTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
