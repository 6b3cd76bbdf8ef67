package globalfp

import (
	"math/rand"
	"testing"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// modelFP builds a fingerprint whose bucket the model knows without
// sharing hintTable.bucket: byte 8 is the low byte of the word the
// table hashes on, id tells fingerprints of one bucket apart.
func modelFP(bucket, id int) chunk.Fingerprint {
	var fp chunk.Fingerprint
	fp[8] = byte(bucket)
	fp[0], fp[1] = byte(id), byte(id>>8)
	return fp
}

// TestHintTableMatchesModel drives the table and a reference model —
// one newest-first list of at most hintWays bindings per bucket — with
// the same random operations and compares every answer and, after every
// operation, every bucket's contents and order.
func TestHintTableMatchesModel(t *testing.T) {
	const buckets, ids, owners = 4, 9, 3
	type binding struct {
		fp    chunk.Fingerprint
		canon alloc.PBA
	}
	h := newHintTable(buckets * hintWays)
	if len(h.slots) != buckets*hintWays {
		t.Fatalf("table has %d slots, want %d", len(h.slots), buckets*hintWays)
	}
	model := make([][]binding, buckets)
	find := func(bk int, fp chunk.Fingerprint) int {
		for i, e := range model[bk] {
			if e.fp == fp {
				return i
			}
		}
		return -1
	}
	front := func(bk, i int) {
		e := model[bk][i]
		copy(model[bk][1:i+1], model[bk][:i])
		model[bk][0] = e
	}
	var wantHits, wantOverwrites int64

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		bk := rng.Intn(buckets)
		fp := modelFP(bk, rng.Intn(ids))
		canon := alloc.MakeRemote(rng.Intn(owners), alloc.PBA(rng.Intn(4)))
		switch op := rng.Intn(100); {
		case op < 45: // put
			h.put(fp, canon)
			if i := find(bk, fp); i >= 0 {
				model[bk][i].canon = canon
				front(bk, i)
			} else {
				if len(model[bk]) == hintWays {
					model[bk] = model[bk][:hintWays-1]
					wantOverwrites++
				}
				model[bk] = append([]binding{{fp, canon}}, model[bk]...)
			}
		case op < 75: // get
			got, ok := h.get(fp)
			i := find(bk, fp)
			if ok != (i >= 0) || (ok && got != model[bk][i].canon) {
				t.Fatalf("step %d: get = %d,%v; model index %d", step, got, ok, i)
			}
			if i >= 0 {
				front(bk, i)
				wantHits++
			}
		case op < 85: // peek
			got, ok := h.peek(fp)
			i := find(bk, fp)
			if ok != (i >= 0) || (ok && got != model[bk][i].canon) {
				t.Fatalf("step %d: peek = %d,%v; model index %d", step, got, ok, i)
			}
		case op < 97: // remove, half the time naming the live canonical
			if i := find(bk, fp); i >= 0 && rng.Intn(2) == 0 {
				canon = model[bk][i].canon
			}
			h.remove(fp, canon)
			if i := find(bk, fp); i >= 0 && model[bk][i].canon == canon {
				model[bk] = append(model[bk][:i], model[bk][i+1:]...)
			}
		case op < 99: // an owner crashes
			owner := rng.Intn(owners)
			h.dropOwner(owner)
			for b := range model {
				kept := model[b][:0]
				for _, e := range model[b] {
					if o, _ := alloc.RemoteParts(e.canon); o != owner {
						kept = append(kept, e)
					}
				}
				model[b] = kept
			}
		default:
			h.clear()
			for b := range model {
				model[b] = model[b][:0]
			}
		}
		for b := range model {
			slots := h.slots[b*hintWays : (b+1)*hintWays]
			for i, s := range slots {
				if i < len(model[b]) {
					if s.fp != model[b][i].fp || s.canon != model[b][i].canon {
						t.Fatalf("step %d: bucket %d slot %d = %v→%d, model %v→%d",
							step, b, i, s.fp, s.canon, model[b][i].fp, model[b][i].canon)
					}
				} else if s != (hintSlot{}) {
					t.Fatalf("step %d: bucket %d slot %d live past the model's %d entries", step, b, i, len(model[b]))
				}
			}
		}
	}
	if h.hits != wantHits || h.overwrites != wantOverwrites {
		t.Fatalf("hits %d overwrites %d, model %d %d", h.hits, h.overwrites, wantHits, wantOverwrites)
	}
	if wantHits == 0 || wantOverwrites == 0 {
		t.Fatalf("walk too tame: %d hits, %d overwrites", wantHits, wantOverwrites)
	}
}

// TestRevokeDeletesHintBeforeAck: by the time the owner can see a
// shard's ack, that shard's binding is gone — the ordering that lets the
// owner free the block on the last ack. A revoke that names another
// canonical than the one bound (a newer grant) leaves the binding alone.
func TestRevokeDeletesHintBeforeAck(t *testing.T) {
	tier, agents := fenceCluster(t, 2)
	fp := chunk.ContentID(99).Fingerprint()
	canon, other := alloc.MakeRemote(1, 7), alloc.MakeRemote(1, 8)
	ep := tier.Epoch(1)

	tier.send(0, message{kind: msgGrant, fp: fp, canon: canon, from: 1, epoch: ep})
	tier.send(0, message{kind: msgRevoke, fp: fp, canon: other, from: 1, epoch: ep})
	agents[0].drainMsgs(0, 16)
	if c, ok := agents[0].hints.peek(fp); !ok || c != canon {
		t.Fatalf("revoke of canonical %d removed the binding to %d (%d,%v)", other, canon, c, ok)
	}
	tier.inbox[1].clear()

	tier.send(0, message{kind: msgRevoke, fp: fp, canon: canon, from: 1, epoch: ep})
	agents[0].drainMsgs(0, 16)
	acks := tier.inbox[1].take(nil, 16)
	if len(acks) != 1 || acks[0].kind != msgRevokeAck || acks[0].canon != canon || acks[0].from != 0 {
		t.Fatalf("owner inbox holds %+v, want one ack for canonical %d from shard 0", acks, canon)
	}
	if _, ok := agents[0].Hint(fp); ok {
		t.Fatal("ack sent while the hint was still bound")
	}
}

// TestCrashDropsDeadOwnersHints: a crash deletes exactly the bindings
// naming the dead shard's canonicals, on every survivor, and a grant the
// dead shard queued before crashing installs nothing when drained. These
// two are why Base.TryDedupe trusts a hint without asking whether its
// owner is down.
func TestCrashDropsDeadOwnersHints(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	fpOf := chunk.ContentID.Fingerprint
	tier.send(0, message{kind: msgGrant, fp: fpOf(1), canon: alloc.MakeRemote(1, 3), from: 1})
	tier.send(0, message{kind: msgGrant, fp: fpOf(2), canon: alloc.MakeRemote(2, 3), from: 2})
	tier.send(2, message{kind: msgGrant, fp: fpOf(1), canon: alloc.MakeRemote(1, 3), from: 1})
	agents[0].DrainAll(0)
	agents[2].DrainAll(0)
	for _, s := range []int{0, 2} {
		tier.send(s, message{kind: msgGrant, fp: fpOf(4), canon: alloc.MakeRemote(1, 5), from: 1, epoch: tier.Epoch(1)})
	}

	tier.CrashShard(1)
	for _, s := range []int{0, 2} {
		if _, ok := agents[s].Hint(fpOf(1)); ok {
			t.Fatalf("shard %d: hint on the crashed shard's canonical survived", s)
		}
		agents[s].DrainAll(0)
		if _, ok := agents[s].Hint(fpOf(4)); ok {
			t.Fatalf("shard %d: a grant queued before the crash installed a hint", s)
		}
	}
	if _, ok := agents[0].Hint(fpOf(2)); !ok {
		t.Fatal("hint on a live shard's canonical dropped")
	}
	agents[0].RecoverReset()
	if _, ok := agents[0].Hint(fpOf(2)); ok {
		t.Fatal("hint survived the shard's own recovery")
	}
}

// TestInboxMatchesSliceModel interleaves push, pushAll (runs from empty
// to several chunks), take and clear against a plain slice, holding the
// chunk list to its accounting at every step: the chunks it says it
// holds are the ones queued plus the spares, and they are as many as
// were ever queued at once.
func TestInboxMatchesSliceModel(t *testing.T) {
	var in inbox
	var model, got, run []message
	rng := rand.New(rand.NewSource(2))
	next, peak, peakChunks := 0, 0, 0
	for step := 0; step < 50000; step++ {
		switch op := rng.Intn(100); {
		case op < 40:
			for k := rng.Intn(40); k >= 0; k-- {
				m := message{from: next}
				next++
				in.push(m)
				model = append(model, m)
			}
		case op < 60:
			run = run[:0]
			for k := rng.Intn(3*inboxChunkLen) * rng.Intn(2); k > 0; k-- {
				run = append(run, message{from: next})
				next++
			}
			in.pushAll(run)
			model = append(model, run...)
		case op < 97:
			n := rng.Intn(80) << uint(rng.Intn(5))
			got = in.take(got[:0], n)
			k := min(n, len(model))
			if len(got) != k {
				t.Fatalf("step %d: take(%d) returned %d messages, model %d", step, n, len(got), k)
			}
			for i := range got {
				if got[i].from != model[i].from {
					t.Fatalf("step %d: message %d is #%d, model #%d", step, i, got[i].from, model[i].from)
				}
			}
			model = model[k:]
		default:
			in.clear()
			model = model[:0]
		}
		peak = max(peak, len(model))
		if in.len() != len(model) || in.peakLen() != int64(peak) {
			t.Fatalf("step %d: len %d peak %d, model %d peak %d", step, in.len(), in.peakLen(), len(model), peak)
		}
		queued, spares := 0, 0
		for c := in.head; c != nil; c = c.next {
			queued++
		}
		for c := in.spare; c != nil; c = c.next {
			spares++
		}
		if want := (len(model) + in.r + inboxChunkLen - 1) / inboxChunkLen; queued != want {
			t.Fatalf("step %d: %d messages from offset %d sit in %d chunks, want %d", step, len(model), in.r, queued, want)
		}
		peakChunks = max(peakChunks, queued)
		if in.chunks != queued+spares || in.chunks != peakChunks {
			t.Fatalf("step %d: %d queued + %d spare chunks, at most %d queued; inbox counts %d held", step, queued, spares, peakChunks, in.chunks)
		}
	}
}

// TestInboxRecyclesChunks: a drained flood keeps its chunks, so a
// second flood as large allocates nothing; and a tick's traffic — a few
// runs in, a budget out — goes through spare chunks and allocates
// nothing either, whatever the backlog did before.
func TestInboxRecyclesChunks(t *testing.T) {
	var in inbox
	flood := make([]message, 100*inboxChunkLen)
	in.pushAll(flood)
	if got := in.bytes(); got < int64(len(flood))*int64(unsafe.Sizeof(message{})) {
		t.Fatalf("inbox reports %d bytes for %d queued messages", got, len(flood))
	}
	buf := in.take(nil, len(flood))
	if in.chunks != 100 {
		t.Fatalf("drained flood leaves %d chunks held, want its 100", in.chunks)
	}
	if avg := testing.AllocsPerRun(3, func() {
		in.pushAll(flood)
		buf = in.take(buf[:0], len(flood))
	}); avg != 0 || in.chunks != 100 {
		t.Fatalf("second flood: %.2f allocs, %d chunks held; want 0 and 100", avg, in.chunks)
	}
	run := flood[:7]
	tick := func() {
		for k := 0; k < 60; k++ {
			in.pushAll(run)
		}
		buf = in.take(buf[:0], 256)
		buf = in.take(buf[:0], 256)
	}
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Fatalf("steady tick: %.2f allocs, want 0", avg)
	}
}

// BenchmarkInboxDrain is one agent tick's worth of queue traffic — 256
// messages in, 256 out — behind a standing backlog. The cost must not
// depend on the backlog: ns/op at 100k is within 2× of 1k (the larger
// ring no longer fits the cache; the slice-shifting queue this replaced
// was 38× apart).
func BenchmarkInboxDrain(b *testing.B) {
	for _, bl := range []struct {
		name string
		n    int
	}{{"backlog=1k", 1000}, {"backlog=100k", 100000}} {
		b.Run(bl.name, func(b *testing.B) {
			var in inbox
			for i := 0; i < bl.n; i++ {
				in.push(message{from: i})
			}
			var buf []message
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 256; k++ {
					in.push(message{from: k})
				}
				buf = in.take(buf[:0], 256)
			}
		})
	}
}

// benchFPs returns n distinct fingerprints.
func benchFPs(n int) []chunk.Fingerprint {
	fps := make([]chunk.Fingerprint, n)
	for i := range fps {
		fps[i] = chunk.ContentID(i + 1).Fingerprint()
	}
	return fps
}

func failOnAllocs(b *testing.B, what string, f func()) {
	b.Helper()
	b.StopTimer()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		b.Fatalf("%s: %.2f allocs/op, want 0", what, avg)
	}
}

// BenchmarkHintPut installs a stream of distinct fingerprints four
// times the table's size, so most puts overwrite.
func BenchmarkHintPut(b *testing.B) {
	h := newHintTable(1 << 16)
	fps := benchFPs(1 << 18)
	canon := alloc.MakeRemote(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.put(fps[i&(len(fps)-1)], canon)
	}
	failOnAllocs(b, "hint put", func() { h.put(fps[0], canon) })
}

// BenchmarkHintGet probes a full table, half the probes hitting.
func BenchmarkHintGet(b *testing.B) {
	h := newHintTable(1 << 16)
	fps := benchFPs(1 << 16)
	for _, fp := range fps[:len(fps)/2] {
		h.put(fp, alloc.MakeRemote(1, 1))
	}
	var sink alloc.PBA
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := h.get(fps[i&(len(fps)-1)])
		sink += c
	}
	failOnAllocs(b, "hint get", func() { sink, _ = h.get(fps[0]) })
	_ = sink
}

// BenchmarkAgentDrainGrants is the beneficiary's side of the broadcast:
// one tick's budget of grants pushed and drained through the agent —
// fence check, local-duplicate peek, hint install — on a shard as loaded
// as a serving one: its hot index full (262 144 fingerprints, a 14 MB
// directory) and its hint table as large (8 MB), both past L2. Half the
// grants name a fingerprint the index holds, whose fold is queued.
func BenchmarkAgentDrainGrants(b *testing.B) {
	tier, agents := memCluster(b, 2, 32<<20)
	a := agents[0]
	held := a.b.IC.IndexCapTotal()
	fps := benchFPs(2 * held)
	for i, fp := range fps[:held] {
		a.b.IC.IndexInsert(fp, alloc.PBA(i))
	}
	ep := tier.Epoch(1)
	tick := func(i int) {
		for k := 0; k < 256; k++ {
			fp := fps[(i*256+k)%len(fps)]
			tier.inbox[0].push(message{kind: msgGrant, fp: fp, canon: alloc.MakeRemote(1, 1), from: 1, epoch: ep})
		}
		a.drainMsgs(0, 256)
		a.foldQ = a.foldQ[:0]
	}
	tick(0) // size the ring, the drain buffer and the fold queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i)
	}
	failOnAllocs(b, "grant drain", func() { tick(0) })
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(256*b.N), "ns/grant")
}
