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
