// Per-shard failure-domain tests driven through the exported surface:
// a crash mid-recall, resolved by the crash notice.
package globalfp_test

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
)

// TestRecallRacingCrashReleasesPinOnNotice: shard 0 recalls four
// paroled canonicals in one round while shard 2 holds the unacked
// barrier in its inbox; shard 2 then crashes. The round must not wait
// forever on the dead peer: the crash notice queued at shard 0 stands
// in for its ack, and once shard 0 drains it the hinted pins (and the
// blocks) are finally freed.
func TestRecallRacingCrashReleasesPinOnNotice(t *testing.T) {
	c := newCluster(t, 3)
	ids := seq(1300, 4)

	write(t, c.engs[0], 0, 0, ids) // canonicals on shard 0
	c.settle(1000)                 // hints installed for shards 1 and 2
	write(t, c.engs[1], 2000, 0, ids)
	c.settle(3000)

	// Abandon the canonicals: shard 1's overwrite drops its refs, shard
	// 0's overwrite paroles them.
	write(t, c.engs[1], 4000, 0, seq(1400, 4))
	c.settle(5000)
	write(t, c.engs[0], 6000, 0, seq(1500, 4))

	// Drain only the owner: the round opens (barriers queued at shards
	// 1 and 2) but no ack has been processed yet. Then shard 1 acks;
	// shard 2's barrier stays in its inbox.
	c.agents[0].DrainAll(7000)
	c.agents[1].DrainAll(7000)
	c.agents[0].DrainAll(7000)
	for pba := alloc.PBA(0); pba < 4; pba++ {
		if pins := c.engs[0].Base().Map.PinCount(pba); pins != 1 {
			t.Fatalf("canonical %d holds %d pins mid-recall, want the hinted pin", pba, pins)
		}
	}

	// Shard 2 dies with the barrier unacked. Until shard 0 drains the
	// crash notice the round stays open; the notice is an implicit grant.
	c.tier.CrashShard(2)
	st := c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_recalls_done"] != 0 {
		t.Fatalf("recall completed %d rounds before the notice was drained", st["globalfp_recalls_done"])
	}
	c.agents[0].DrainAll(8000)

	st = c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_recalls_sent"] != 4 || st["globalfp_recalls_done"] != 4 {
		t.Fatalf("recalls sent %d done %d, want 4/4", st["globalfp_recalls_sent"], st["globalfp_recalls_done"])
	}
	if st["globalfp_recall_rounds"] != 1 || st["globalfp_recall_implicit_grants"] != 1 {
		t.Fatalf("%d rounds, %d implicit grants, want the one round acked by the notice", st["globalfp_recall_rounds"], st["globalfp_recall_implicit_grants"])
	}
	for pba := alloc.PBA(0); pba < 4; pba++ {
		if pins := c.engs[0].Base().Map.PinCount(pba); pins != 0 {
			t.Fatalf("canonical %d still holds %d pins after the notice", pba, pins)
		}
	}
	if used := c.engs[0].UsedBlocks(); used != 4 {
		t.Fatalf("shard 0 uses %d blocks, want 4 (abandoned canonicals freed)", used)
	}

	c.tier.RecoverShard(2)
	c.check(t)
}

// TestOwnerCrashCountsDroppedRecalls: the owner crashes with one round
// open (four pins waiting on acks no peer has sent) and four more pins
// recalled behind it. Recovery drops both with the agent's volatile
// state; they count as dropped, so once the cluster settles every
// recalled pin is done or dropped.
func TestOwnerCrashCountsDroppedRecalls(t *testing.T) {
	c := newCluster(t, 3)
	first, second := seq(1300, 4), seq(1600, 4)

	write(t, c.engs[0], 0, 0, first) // canonicals on shard 0
	write(t, c.engs[0], 0, 100, second)
	c.settle(1000) // hints installed for shards 1 and 2
	write(t, c.engs[1], 2000, 0, first)
	write(t, c.engs[1], 2000, 100, second)
	c.settle(3000)
	write(t, c.engs[1], 4000, 0, seq(1400, 4)) // shard 1 drops its refs
	write(t, c.engs[1], 4000, 100, seq(1700, 4))
	c.settle(5000)

	// Shard 0 paroles the first set; its drain opens a round whose
	// barriers stay unanswered. The second set is recalled behind it.
	write(t, c.engs[0], 6000, 0, seq(1500, 4))
	c.agents[0].DrainAll(7000)
	write(t, c.engs[0], 8000, 100, seq(1800, 4))
	c.agents[0].DrainAll(9000)
	st := c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_recalls_sent"] != 8 || st["globalfp_recalls_done"] != 0 || st["globalfp_recall_rounds"] != 1 {
		t.Fatalf("before the crash: recalls sent %d done %d in %d rounds, want 8, 0 and the one open round",
			st["globalfp_recalls_sent"], st["globalfp_recalls_done"], st["globalfp_recall_rounds"])
	}

	c.tier.CrashShard(0)
	if _, err := c.engs[0].CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	c.tier.RecoverShard(0)
	c.settle(10000)

	st = c.engs[0].Metrics().Snapshot().Gauges
	sent, done, dropped := st["globalfp_recalls_sent"], st["globalfp_recalls_done"], st["globalfp_recalls_dropped"]
	if dropped != 8 || sent != done+dropped {
		t.Fatalf("after settling: recalls sent %d, done %d, dropped %d; want all 8 dropped and sent = done + dropped", sent, done, dropped)
	}
	c.check(t)
}
