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

// fenceCluster builds a stopped (synchronous-ad) tier over n engines
// with direct access to the agents' internals.
func fenceCluster(t testing.TB, n int) (*Tier, []*Agent) {
	t.Helper()
	tier, err := NewTier(n, Params{})
	if err != nil {
		t.Fatal(err)
	}
	tier.Stop()
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		e := core.NewSelectDedupe(fenceConfig())
		if _, ok := bgdedup.Attach(e, bgdedup.Params{}); !ok {
			t.Fatal("bgdedup.Attach refused Select-Dedupe")
		}
		agents[i] = New(e.Base(), tier, i)
	}
	return tier, agents
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

	var fper chunk.SyntheticFingerprinter
	ch := chunk.Chunk{Content: 4242}
	fp := fper.Fingerprint(&ch)
	canon := alloc.MakeRemote(1, 7)

	tier.send(0, message{kind: msgGrant, fp: fp, canon: canon, from: 1, epoch: 0})
	agents[0].DrainAll(0)
	if agents[0].staleDropped != 1 {
		t.Fatalf("agent 0 staleDropped = %d, want 1", agents[0].staleDropped)
	}
	if c := tier.Snapshot(); c.StaleDropped != 1 {
		t.Fatalf("tier StaleDropped = %d, want 1", c.StaleDropped)
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

// TestStaleEpochAdvertisementFenced: an advertisement queued by a
// shard's previous life must not register a (possibly freed) block as
// the cluster-wide canonical.
func TestStaleEpochAdvertisementFenced(t *testing.T) {
	tier, _ := fenceCluster(t, 2)
	tier.CrashShard(1)
	tier.RecoverShard(1)

	var fper chunk.SyntheticFingerprinter
	ch := chunk.Chunk{Content: 777}
	fp := fper.Fingerprint(&ch)

	tier.processAd(ad{fp: fp, pba: 3, shard: 1, epoch: 0, fresh: true})
	c := tier.Snapshot()
	if c.StaleDropped != 1 {
		t.Fatalf("tier StaleDropped = %d, want 1", c.StaleDropped)
	}
	if c.Entries != 0 {
		t.Fatalf("stale ad registered a table entry (entries=%d)", c.Entries)
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
	a := agents[0]

	// Fabricate the owner-side state a granted canonical would hold:
	// block 0 live, hinted-pinned, unreferenced (paroled).
	b := a.b
	pba, ok := b.Alloc.AllocLargest(1)
	if !ok {
		t.Fatal("alloc failed")
	}
	b.Store.Write(pba, 31337)
	b.Map.Pin(pba)
	a.hintedSet(pba)
	a.paroleQ = append(a.paroleQ, pba)

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
