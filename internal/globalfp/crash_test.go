// Per-shard failure-domain tests driven through the exported surface:
// a crash mid-recall, resolved by the virtual-time recall timeout.
package globalfp_test

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/sim"
)

// TestRecallRacingCrashReleasesPinAfterTimeout: shard 0 recalls a
// paroled canonical while shard 2 holds an unacked revoke in its inbox;
// shard 2 then crashes. The recall must not wait forever on the dead
// peer — after recallTimeoutVT the sweep treats the moved epoch as an
// implicit grant and the hinted pin (and the block) is finally freed.
func TestRecallRacingCrashReleasesPinAfterTimeout(t *testing.T) {
	c := newCluster(t, 3)
	ids := seq(1300, 4)

	write(t, c.engs[0], 0, 0, ids) // canonicals on shard 0
	c.settle(1000)                 // hints granted to shards 1 and 2
	write(t, c.engs[1], 2000, 0, ids)
	c.settle(3000)

	// Abandon the canonicals: shard 1's overwrite drops its refs, shard
	// 0's overwrite paroles them.
	write(t, c.engs[1], 4000, 0, seq(1400, 4))
	c.settle(5000)
	write(t, c.engs[0], 6000, 0, seq(1500, 4))

	// Drain only the owner: the recalls start (revokes queued at shards
	// 1 and 2) but no ack has been processed yet. Then shard 1 acks;
	// shard 2's revoke stays in its inbox.
	c.agents[0].DrainAll(7000)
	c.agents[1].DrainAll(7000)
	c.agents[0].DrainAll(7000)
	for pba := alloc.PBA(0); pba < 4; pba++ {
		if pins := c.engs[0].Base().Map.PinCount(pba); pins != 1 {
			t.Fatalf("canonical %d holds %d pins mid-recall, want the hinted pin", pba, pins)
		}
	}

	// Shard 2 dies with the revokes unacked. Before the timeout elapses
	// the rounds stay open; after it, the moved epoch is an implicit
	// grant.
	c.tier.CrashShard(2)
	c.agents[0].Tick(8000) // well inside the timeout window
	st := c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_recalls_done"] != 0 {
		t.Fatalf("recall completed %d rounds before the timeout", st["globalfp_recalls_done"])
	}
	c.agents[0].Tick(7000 + sim.Time(2*sim.Second))

	st = c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_recalls_sent"] != 4 || st["globalfp_recalls_done"] != 4 {
		t.Fatalf("recalls sent %d done %d, want 4/4", st["globalfp_recalls_sent"], st["globalfp_recalls_done"])
	}
	if st["globalfp_recall_timeouts"] != 4 {
		t.Fatalf("recall timeouts = %d, want 4", st["globalfp_recall_timeouts"])
	}
	for pba := alloc.PBA(0); pba < 4; pba++ {
		if pins := c.engs[0].Base().Map.PinCount(pba); pins != 0 {
			t.Fatalf("canonical %d still holds %d pins after the timeout", pba, pins)
		}
	}
	if used := c.engs[0].UsedBlocks(); used != 4 {
		t.Fatalf("shard 0 uses %d blocks, want 4 (abandoned canonicals freed)", used)
	}

	c.tier.RecoverShard(2)
	c.check(t)
}
