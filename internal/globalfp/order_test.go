package globalfp

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// TestSendsKeepPairOrder drives one DrainAll on shard 0 that sends all
// four ordered kinds toward shard 1 — grants and an ack from the
// message drain, a RefUp from the fold that follows it and a recall
// round's barrier from the parole after that — between two sends
// outside it. Shard 1's inbox must hold them in the order they were
// sent: a grant delivered after the later barrier would fold onto a
// block its owner is about to free, and that is the order a drain that
// deferred its sends behind the fold's and the parole's produces.
func TestSendsKeepPairOrder(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	a, b := agents[0], agents[0].b
	fpOf := chunk.ContentID.Fingerprint
	alloc1 := func(id chunk.ContentID) alloc.PBA {
		pba, ok := b.Alloc.AllocLargest(1)
		if !ok {
			t.Fatal("alloc failed")
		}
		b.Store.Write(pba, id)
		return pba
	}
	// Owner-side state on shard 0: two referenced blocks to grant, a
	// referenced duplicate to fold away onto shard 1's hinted
	// canonical, and a paroled canonical (live, hinted-pinned,
	// unreferenced).
	g1, g2, dup := alloc1(11), alloc1(12), alloc1(13)
	par := paroled(t, a, 10)
	b.Map.Set(1, g1, false)
	b.Map.Set(2, g2, false)
	b.Map.Set(3, dup, false)

	ep1 := tier.Epoch(1)
	remote := func(shard int, pba alloc.PBA) alloc.PBA { return alloc.MakeRemote(shard, pba) }
	tier.install(fpOf(13), remote(1, 9))
	a.RemoteRef(remote(1, 40), true) // ahead of the drain
	tier.send(0, message{kind: msgGrant, fp: fpOf(13), canon: remote(1, 9), dup: dup, from: 1, epoch: ep1})
	tier.send(0, message{kind: msgPinReq, fp: fpOf(11), canon: remote(0, g1), dup: 5, from: 1, epoch: ep1})
	tier.send(0, message{kind: msgBarrier, from: 1, epoch: ep1})
	tier.send(0, message{kind: msgPinReq, fp: fpOf(12), canon: remote(0, g2), dup: 6, from: 1, epoch: ep1})
	a.DrainAll(0)
	a.RemoteRef(remote(1, 41), false) // after it

	type sent struct {
		kind  msgKind
		canon alloc.PBA
	}
	want := []sent{
		{msgRefUp, remote(1, 40)},
		{msgGrant, remote(0, g1)},
		{msgAck, 0},
		{msgGrant, remote(0, g2)},
		{msgRefUp, remote(1, 9)},
		{msgBarrier, 0},
		{msgRefDown, remote(1, 41)},
	}
	got := tier.inbox[1].take(nil, 64)
	if len(got) != len(want) {
		t.Fatalf("shard 1 received %d messages, want %d: %+v", len(got), len(want), got)
	}
	for i, m := range got {
		if (sent{m.kind, m.canon}) != want[i] || m.from != 0 || m.epoch != tier.Epoch(0) {
			t.Fatalf("message %d is kind %d canon %#x from %d epoch %d, want kind %d canon %#x from 0 epoch %d",
				i, m.kind, m.canon, m.from, m.epoch, want[i].kind, want[i].canon, tier.Epoch(0))
		}
	}
	if a.remapsApplied != 1 || a.recallsSent != 1 || len(a.round) != 1 || a.round[0] != par {
		t.Fatalf("the drain applied %d folds and recalled %d pins, the open round %v; want 1, 1 and the paroled block %d", a.remapsApplied, a.recallsSent, a.round, par)
	}

	// Sends toward a shard that went down are dropped and counted, one
	// by one; the same drain's sends toward a live shard arrive. The
	// crash queued a notice at shards 0 and 1 ahead of them.
	tier.CrashShard(2)
	before := tier.downDropped.Load()
	for k := 0; k < 3; k++ {
		for _, from := range []int{1, 2} {
			tier.send(0, message{kind: msgPinReq, fp: fpOf(11), canon: remote(0, g1), dup: alloc.PBA(k), from: int32(from), epoch: tier.Epoch(from)})
		}
	}
	if n := a.drainMsgs(0, 16); n != 7 {
		t.Fatalf("drained %d messages, want the notice and 6", n)
	}
	if dropped := tier.downDropped.Load() - before; dropped != 3 {
		t.Fatalf("down-dropped rose by %d, want the 3 grants toward shard 2", dropped)
	}
	if n1, n2 := tier.inbox[1].len(), tier.inbox[2].len(); n1 != 4 || n2 != 0 {
		t.Fatalf("inboxes hold %d (live) and %d (down) messages, want 4 (the notice and 3 grants) and 0", n1, n2)
	}
}
