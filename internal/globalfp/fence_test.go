// Internal-package tests for the epoch fence: they craft raw protocol
// messages (stale stamps a live sender can no longer produce) and
// inject them directly, which the exported surface deliberately makes
// impossible.
package globalfp

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
)

func fenceConfig() engine.Config {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 14))
	}
	return engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
		NVRAMBytes:  1 << 22,
	}
}

// fenceCluster builds a tier over n engines with direct access to the
// agents' internals.
func fenceCluster(t testing.TB, n int) (*Tier, []*Agent) {
	t.Helper()
	return memCluster(t, n, fenceConfig().MemoryBytes)
}

// memCluster is fenceCluster with memBytes of cache memory a shard:
// its hot index, and so its hint table, are sized from it.
func memCluster(t testing.TB, n int, memBytes int64) (*Tier, []*Agent) {
	t.Helper()
	tier, err := NewTier(n, Params{})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		cfg := fenceConfig()
		cfg.MemoryBytes = memBytes
		e := core.NewSelectDedupe(cfg)
		if _, ok := bgdedup.Attach(e, bgdedup.Params{}); !ok {
			t.Fatal("bgdedup.Attach refused Select-Dedupe")
		}
		agents[i] = New(e.Base(), tier, i)
	}
	return tier, agents
}

// paroled fabricates the owner-side state a granted canonical holds once
// its last local reference is gone: a live block holding content id,
// hinted-pinned, unreferenced, queued for parole.
func paroled(t testing.TB, a *Agent, id chunk.ContentID) alloc.PBA {
	t.Helper()
	pba, ok := a.b.Alloc.AllocLargest(1)
	if !ok {
		t.Fatal("alloc failed")
	}
	a.b.Store.Write(pba, id)
	a.b.Map.Pin(pba)
	a.hintedSet(pba)
	a.paroleQ = append(a.paroleQ, pba)
	return pba
}

// TestStaleEpochGrantDroppedAfterRejoin: a grant shard 1 issued before
// crashing (stamped with its previous epoch) must be dropped and
// counted when it surfaces after the rejoin — installing it would bind
// a fingerprint to a block the dead incarnation may have freed. The
// same grant under the current epoch lands normally.
func TestStaleEpochGrantDroppedAfterRejoin(t *testing.T) {
	tier, agents := fenceCluster(t, 2)
	tier.CrashShard(1)
	tier.RecoverShard(1)
	if got := tier.Epoch(1); got != 1 {
		t.Fatalf("shard 1 epoch %d after crash, want 1", got)
	}

	fp := chunk.ContentID(4242).Fingerprint()
	canon := alloc.MakeRemote(1, 7)

	tier.send(0, message{kind: msgGrant, fp: fp, canon: canon, from: 1, epoch: 0})
	agents[0].DrainAll(0)
	if agents[0].staleDropped != 1 {
		t.Fatalf("agent 0 staleDropped = %d, want 1", agents[0].staleDropped)
	}
	if n := tier.staleDropped.Load(); n != 1 {
		t.Fatalf("tier staleDropped = %d, want 1", n)
	}
	if agents[0].hintsInstalled != 0 {
		t.Fatal("stale grant installed a hint")
	}
	if _, ok := agents[0].Hint(fp); ok {
		t.Fatal("stale grant reached the hint table")
	}

	tier.send(0, message{kind: msgGrant, fp: fp, canon: canon, from: 1, epoch: tier.Epoch(1)})
	agents[0].DrainAll(0)
	if agents[0].hintsInstalled != 1 {
		t.Fatalf("current-epoch grant not installed (hints=%d)", agents[0].hintsInstalled)
	}
	if c, ok := agents[0].Hint(fp); !ok || c != canon {
		t.Fatalf("hint binding %v,%v want %d", c, ok, canon)
	}
}

// TestStaleEpochAdvertisementFenced: a batch of advertisements stamped
// in a shard's previous life must not register a (possibly freed) block
// as the cluster-wide canonical.
func TestStaleEpochAdvertisementFenced(t *testing.T) {
	tier, _ := fenceCluster(t, 2)
	tier.CrashShard(1)
	tier.RecoverShard(1)

	fp := chunk.ContentID(777).Fingerprint()

	tier.publish(1, 0, []engine.Ad{{FP: fp, PBA: 3, Fresh: true}, {FP: fp, PBA: 4}}, &pubScratch{})
	if n := tier.staleDropped.Load(); n != 2 {
		t.Fatalf("tier staleDropped = %d, want 2", n)
	}
	if _, ok := tier.part(fp).tbl.Get(fp); ok {
		t.Fatal("stale ad registered a table entry")
	}

	// Refs are exempt from the fence: they mirror journaled transitions
	// that survive the sender's crash, so a pre-crash RefUp must still
	// pin the canonical it references.
	tier.send(0, message{kind: msgRefUp, canon: alloc.MakeRemote(0, 5), from: 1, epoch: 0})
	agents := tier.agents
	agents[0].DrainAll(0)
	if agents[0].refPins != 1 {
		t.Fatalf("pre-crash RefUp fenced (refPins=%d, want 1)", agents[0].refPins)
	}
}

// TestRecallCompletesWhenEveryPeerIsDown: a recall started while all
// peers are crashed has no acks to wait for and must complete (and
// release the hinted pin) immediately instead of leaking the round.
func TestRecallCompletesWhenEveryPeerIsDown(t *testing.T) {
	tier, agents := fenceCluster(t, 2)
	a, b := agents[0], agents[0].b
	pba := paroled(t, a, 31337)

	tier.CrashShard(1)
	a.DrainAll(0)

	if len(a.recalling) != 0 {
		t.Fatalf("%d recall rounds leaked", len(a.recalling))
	}
	if a.recallsSent != 1 || a.recallsDone != 1 {
		t.Fatalf("recalls sent %d done %d, want 1/1", a.recallsSent, a.recallsDone)
	}
	if pins := b.Map.PinCount(pba); pins != 0 {
		t.Fatalf("hinted pin not released (%d pins)", pins)
	}
}

// TestCrashNoticeQueuesBehindDeadPeersRefUp: shard 1 reports a reference
// to a canonical under recall and crashes, with the owner's inbox so
// backed up that its RefUp is still queued when the owner's fold step
// comes round. The implicit grant for shard 1 must not release the
// hinted pin before that RefUp is counted — the block would be freed
// while shard 1's journal still maps it. The crash notice queues behind
// the RefUp, so the canonical survives on the ref pin.
func TestCrashNoticeQueuesBehindDeadPeersRefUp(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	a := agents[0]
	pba := paroled(t, a, 31337)
	canon := alloc.MakeRemote(0, pba)

	a.processParole(-1)   // revokes toward shards 1 and 2
	agents[2].DrainAll(0) // shard 2 acks
	for k := 0; k < 300; k++ {
		// harmless backlog: acks for a block under no recall
		agents[2].send(0, message{kind: msgRevokeAck, canon: alloc.MakeRemote(0, 999)})
	}
	agents[1].RemoteRef(canon, true)
	tier.CrashShard(1)
	now := sim.Time(600 * sim.Millisecond)
	a.Tick(now)
	a.DrainAll(now)

	_, live := a.b.Store.Read(pba)
	if pins := a.b.Map.PinCount(pba); !live || pins != 1 {
		t.Fatalf("canonical live=%v pins=%d implicitGrants=%d, want live on shard 1's ref pin alone", live, pins, a.implicitGrants)
	}
	if a.recallsDone != 1 || a.implicitGrants != 1 {
		t.Fatalf("recalls done %d, implicit grants %d, want 1 and 1", a.recallsDone, a.implicitGrants)
	}
}

// TestCrashNoticeSparesLaterRound: shard 1 crashes and rejoins, and
// shard 0 revokes a canonical from it before draining that crash's
// notice. The notice covers only rounds started before the crash: the
// new round waits for shard 1's real ack.
func TestCrashNoticeSparesLaterRound(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	a := agents[0]
	pba := paroled(t, a, 31337)

	tier.CrashShard(1)
	tier.RecoverShard(1)
	a.processParole(-1) // revokes toward shards 1 and 2
	if n := a.drainMsgs(0, 16); n != 1 {
		t.Fatalf("drained %d messages, want the crash notice", n)
	}
	if st := a.recalling[pba]; st.waiting != 1<<1|1<<2 || a.implicitGrants != 0 {
		t.Fatalf("round waits on %b after the old notice (%d implicit grants), want shards 1 and 2", st.waiting, a.implicitGrants)
	}

	agents[1].DrainAll(0)
	agents[2].DrainAll(0)
	a.DrainAll(0)
	if _, live := a.b.Store.Read(pba); live || len(a.recalling) != 0 {
		t.Fatalf("round not completed by the real acks (live=%v, %d rounds open)", live, len(a.recalling))
	}
}
