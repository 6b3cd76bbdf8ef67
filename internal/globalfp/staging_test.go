package globalfp

import (
	"fmt"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// TestStagedSendsKeepPairOrder drives one DrainAll on shard 0 that
// sends all four ordered kinds toward shard 1 — grants and a revoke ack
// from the message drain (staged), a RefUp from the fold that follows it
// and a revoke from the parole after that (both direct) — between two
// direct sends outside it. Shard 1's inbox must hold them in the order
// they were sent: a staged grant delivered after the later revoke would
// bind a hint to a block its owner is about to free, and that is the
// order any flush later than the end of drainMsgs produces.
func TestStagedSendsKeepPairOrder(t *testing.T) {
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
	// referenced duplicate to fold away, and a paroled canonical (live,
	// hinted-pinned, unreferenced).
	g1, g2, dup := alloc1(11), alloc1(12), alloc1(13)
	par := paroled(t, a, 10)
	b.Map.Set(1, g1, false)
	b.Map.Set(2, g2, false)
	b.Map.Set(3, dup, false)

	ep1 := tier.Epoch(1)
	remote := func(shard int, pba alloc.PBA) alloc.PBA { return alloc.MakeRemote(shard, pba) }
	a.RemoteRef(remote(1, 40), true) // direct, ahead of the drain
	tier.send(0, message{kind: msgGrant, fp: fpOf(13), canon: remote(1, 9), dup: dup, hasDup: true, from: 1, epoch: ep1})
	tier.send(0, message{kind: msgPinReq, fp: fpOf(11), canon: remote(0, g1), bene: 1 << 1, from: 1, epoch: ep1})
	tier.send(0, message{kind: msgRevoke, fp: fpOf(99), canon: remote(1, 30), from: 1, epoch: ep1})
	tier.send(0, message{kind: msgPinReq, fp: fpOf(12), canon: remote(0, g2), bene: 1 << 1, from: 1, epoch: ep1})
	a.DrainAll(0)
	a.RemoteRef(remote(1, 41), false) // direct, after it

	type sent struct {
		kind  msgKind
		canon alloc.PBA
	}
	want := []sent{
		{msgRefUp, remote(1, 40)},
		{msgGrant, remote(0, g1)},
		{msgRevokeAck, remote(1, 30)},
		{msgGrant, remote(0, g2)},
		{msgRefUp, remote(1, 9)},
		{msgRevoke, remote(0, par)},
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
	if a.remapsApplied != 1 || a.recallsSent != 1 {
		t.Fatalf("the drain applied %d folds and sent %d recalls, want 1 and 1", a.remapsApplied, a.recallsSent)
	}
	staged := func() (n int) {
		for _, run := range a.out {
			n += len(run)
		}
		return n
	}
	if staged() != 0 {
		t.Fatalf("%d messages still staged after the drain", staged())
	}

	// A run toward a shard that went down is dropped whole and counted
	// message for message; the same drain's run toward a live shard
	// arrives. The crash queued a notice at shards 0 and 1 ahead of it.
	tier.CrashShard(2)
	before := tier.downDropped.Load()
	for k := 0; k < 3; k++ {
		tier.send(0, message{kind: msgPinReq, fp: fpOf(11), canon: remote(0, g1), bene: 1<<1 | 1<<2, from: 1, epoch: ep1})
	}
	if n := a.drainMsgs(0, 16); n != 4 {
		t.Fatalf("drained %d messages, want the notice and 3", n)
	}
	if staged() != 0 {
		t.Fatalf("%d messages still staged after drainMsgs returned", staged())
	}
	if dropped := tier.downDropped.Load() - before; dropped != 3 {
		t.Fatalf("down-dropped rose by %d, want the 3 grants toward shard 2", dropped)
	}
	if n1, n2 := tier.inbox[1].len(), tier.inbox[2].len(); n1 != 4 || n2 != 0 {
		t.Fatalf("inboxes hold %d (live) and %d (down) messages, want 4 (the notice and 3 grants) and 0", n1, n2)
	}
}

// TestStagedRunsFlushAtFixedLength: a settlement-sized drain of pin
// requests, seven grants apiece, never holds more than outboxRun
// messages per destination, and every grant arrives, in order.
func TestStagedRunsFlushAtFixedLength(t *testing.T) {
	tier, agents := fenceCluster(t, 8)
	a, b := agents[0], agents[0].b
	pba, ok := b.Alloc.AllocLargest(1)
	if !ok {
		t.Fatal("alloc failed")
	}
	b.Store.Write(pba, 5)
	b.Map.Set(0, pba, false)
	fp := chunk.ContentID(5).Fingerprint()
	const reqs = drainAllChunk
	for k := 0; k < reqs; k++ {
		// dup numbers the request, so arrival order is checkable
		tier.send(0, message{kind: msgPinReq, fp: fp, canon: alloc.MakeRemote(0, pba), bene: 0xfe, dup: alloc.PBA(k), hasDup: true, from: 1, epoch: tier.Epoch(1)})
	}
	if n := a.drainMsgs(0, reqs); n != reqs {
		t.Fatalf("drained %d messages, want %d", n, reqs)
	}
	for to := 1; to < 8; to++ {
		if c := cap(a.out[to]); c > 2*outboxRun {
			t.Errorf("outbox toward shard %d grew to %d messages, want at most a run of %d", to, c, outboxRun)
		}
		got := tier.inbox[to].take(nil, reqs+1)
		if len(got) != reqs {
			t.Fatalf("shard %d received %d grants, want %d", to, len(got), reqs)
		}
		for k, m := range got {
			if m.kind != msgGrant || m.dup != alloc.PBA(k) {
				t.Fatalf("shard %d: message %d is kind %d for request %d", to, k, m.kind, m.dup)
			}
		}
	}
}

// BenchmarkInboxPushAll delivers messages in runs of one (what every
// send cost before staging), seven and a full outbox run, draining a
// tick's budget whenever one has queued; ns/msg is the figure to read.
func BenchmarkInboxPushAll(b *testing.B) {
	for _, n := range []int{1, 7, outboxRun} {
		b.Run(fmt.Sprintf("run=%d", n), func(b *testing.B) {
			var in inbox
			run := make([]message, n)
			var buf []message
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.pushAll(run)
				if in.n >= 256 {
					buf = in.take(buf[:0], 256)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/msg")
		})
	}
}
