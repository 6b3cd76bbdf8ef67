package globalfp

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
)

// modelFP builds a fingerprint whose bucket the model knows without
// sharing hintTable.bucket: the word's bits just above the partition's
// are the bucket, and id, in the word's top half, tells fingerprints of
// one bucket apart.
func modelFP(bucket, id int) chunk.Fingerprint {
	var fp chunk.Fingerprint
	binary.LittleEndian.PutUint64(fp[:], uint64(bucket)*partitions|uint64(id)<<32)
	return fp
}

// TestHotLayouts pins the sizes of what the tier holds most of: a hint
// slot is 16 B, so a four-way bucket fills one 64-byte cache line, and
// a message is 40 B, each inbox chunk and drain buffer a multiple of
// it. A field added to either grows every bucket or queued message.
func TestHotLayouts(t *testing.T) {
	if n := unsafe.Sizeof(hintSlot{}); n != 16 || hintWays*n != 64 {
		t.Fatalf("a hint slot is %d B, a bucket %d B; want 16 and 64", n, hintWays*n)
	}
	if n := unsafe.Sizeof(message{}); n != 40 {
		t.Fatalf("a message is %d B, want 40", n)
	}
}

// TestHintTableMatchesModel drives the table and a reference model —
// one newest-first list of at most hintWays bindings per bucket — with
// the same random operations and compares every answer and, after every
// operation, every bucket's contents and order. A get skips the
// bindings of the owners it is told to, as a shard's lookup skips its
// own canonicals and down owners.
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
	var wantInstalls, wantHits, wantOverwrites int64

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		bk := rng.Intn(buckets)
		fp := modelFP(bk, rng.Intn(ids))
		canon := alloc.MakeRemote(rng.Intn(owners), alloc.PBA(rng.Intn(4)))
		switch op := rng.Intn(100); {
		case op < 45: // put
			h.put(fp, canon)
			wantInstalls++
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
		case op < 75: // get, skipping the bindings of one owner a third of the time
			skip := uint64(0)
			if rng.Intn(3) == 0 {
				skip = 1 << uint(rng.Intn(owners))
			}
			got, ok := h.get(&fp, skip)
			i := find(bk, fp)
			if i >= 0 {
				if o, _ := alloc.RemoteParts(model[bk][i].canon); skip&(1<<uint(o)) != 0 {
					i = -1
				}
			}
			if ok != (i >= 0) || (ok && got != model[bk][i].canon) {
				t.Fatalf("step %d: get(skip %b) = %d,%v; model index %d", step, skip, got, ok, i)
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
	if h.installs != wantInstalls || h.hits != wantHits || h.overwrites != wantOverwrites {
		t.Fatalf("installs %d hits %d overwrites %d, model %d %d %d", h.installs, h.hits, h.overwrites, wantInstalls, wantHits, wantOverwrites)
	}
	if wantHits == 0 || wantOverwrites == 0 {
		t.Fatalf("walk too tame: %d hits, %d overwrites", wantHits, wantOverwrites)
	}
}

// lookupHint runs shard's lookup-stage hint probe of fp, as the write path
// asks on a hot-index miss.
func lookupHint(t *Tier, shard int, fp chunk.Fingerprint) (alloc.PBA, bool) {
	w := &engine.WriteOp{Chunks: []chunk.Chunk{{FP: fp}}, Dup: make([]bool, 1), Target: make([]alloc.PBA, 1)}
	t.hint(shard, w)
	return w.Target[0], w.Dup[0]
}

// TestHintInstalledOnlyAfterPin: a first sighting's hint is invisible
// until its owner has validated the canonical and taken the hinted pin,
// and a stale advertisement — a block that no longer holds the content —
// never becomes one. A hint installed any earlier (when the ad lands,
// or before the owner's validation) would let a peer map onto a block
// nothing protects. Every binding the table then holds passes the audit,
// and the owner's own lookup does not count its own canonical as a hit.
func TestHintInstalledOnlyAfterPin(t *testing.T) {
	tier, agents := fenceCluster(t, 2)
	a, b := agents[0], agents[0].b
	pba, ok := b.Alloc.AllocLargest(2)
	if !ok {
		t.Fatal("alloc failed")
	}
	b.Store.Write(pba, 21)
	b.Store.Write(pba+1, 22)
	b.Map.Set(0, pba, false)
	b.Map.Set(1, pba+1, false)
	fp, stale := chunk.ContentID(21).Fingerprint(), chunk.ContentID(99).Fingerprint()

	a.Advertise([]engine.Ad{{FP: fp, PBA: pba, Fresh: true}, {FP: stale, PBA: pba + 1, Fresh: true}})
	if _, ok := lookupHint(tier, 1, fp); ok {
		t.Fatal("the hint is visible before its owner pinned the canonical")
	}
	a.DrainAll(0)
	if c, ok := lookupHint(tier, 1, fp); !ok || c != alloc.MakeRemote(0, pba) {
		t.Fatalf("peer's probe = %#x,%v after the owner's drain, want the canonical", c, ok)
	}
	if pins := b.Map.PinCount(pba); pins != 1 || !a.hintedTest(pba) {
		t.Fatalf("canonical holds %d pins (hinted %v), want the hinted pin", pins, a.hintedTest(pba))
	}
	if _, ok := tier.bound(stale); ok || a.pinRejects != 1 {
		t.Fatalf("stale ad: bound %v, %d pin rejects; want no hint and one reject", ok, a.pinRejects)
	}
	if _, ok := lookupHint(tier, 0, fp); ok {
		t.Fatal("the owner's probe hit its own canonical")
	}
	if err := tier.CheckHints(); err != nil {
		t.Fatal(err)
	}
	if h := tier.part(fp).hints; h.installs != 1 || h.hits != 1 {
		t.Fatalf("%d installs, %d hits; want 1 and the peer's 1", h.installs, h.hits)
	}
}

// TestRecallDeletesHintBeforeBarrier: the moment an owner starts a
// recall, its hint is gone — before its round's barriers are sent, so
// no lookup forms a reference the round's acks would not cover. A
// recall naming another canonical than the one bound (a newer install)
// leaves the binding alone.
func TestRecallDeletesHintBeforeBarrier(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	a := agents[0]
	pba := paroled(t, a, 31337)
	fp, canon := chunk.ContentID(31337).Fingerprint(), alloc.MakeRemote(0, pba)
	tier.install(fp, canon)

	tier.Recall(fp, 0, pba+1)
	if c, ok := tier.bound(fp); !ok || c != canon {
		t.Fatalf("recall of another block removed the binding to %#x (%#x,%v)", canon, c, ok)
	}
	a.processParole(-1)
	if _, ok := tier.bound(fp); ok {
		t.Fatal("the hint survived the start of its recall")
	}
	if n1, n2 := tier.inbox[1].len(), tier.inbox[2].len(); n1 != 1 || n2 != 1 {
		t.Fatalf("peers hold %d and %d messages, want one barrier each", n1, n2)
	}
	agents[1].DrainAll(0)
	agents[2].DrainAll(0)
	a.DrainAll(0)
	if _, live := a.b.Store.Read(pba); live || a.recallsDone != 1 {
		t.Fatalf("recall done %d, block live %v; want the round complete and the block freed", a.recallsDone, live)
	}
	if err := tier.CheckHints(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDropsDeadOwnersHints: a crash deletes exactly the bindings
// naming the dead shard's canonicals, and they stay gone after it
// rejoins; a shard's own recovery leaves the table alone. The first is
// why Base.TryDedupe trusts a hint without asking whether its owner is
// down: the rejoined shard's recovery may free those blocks.
func TestCrashDropsDeadOwnersHints(t *testing.T) {
	tier, agents := fenceCluster(t, 3)
	fpOf := chunk.ContentID.Fingerprint
	tier.install(fpOf(1), alloc.MakeRemote(1, 3))
	tier.install(fpOf(2), alloc.MakeRemote(2, 3))
	tier.install(fpOf(3), alloc.MakeRemote(1, 4))

	tier.CrashShard(1)
	for _, id := range []chunk.ContentID{1, 3} {
		if c, ok := tier.bound(fpOf(id)); ok {
			t.Fatalf("hint %d on the crashed shard's canonical %#x survived", id, c)
		}
	}
	tier.RecoverShard(1)
	if _, ok := lookupHint(tier, 0, fpOf(1)); ok {
		t.Fatal("the rejoined shard's old canonical is still hinted")
	}
	if _, ok := lookupHint(tier, 0, fpOf(2)); !ok {
		t.Fatal("hint on a live shard's canonical dropped")
	}
	agents[0].RecoverReset()
	if _, ok := lookupHint(tier, 1, fpOf(2)); !ok {
		t.Fatal("a shard's own recovery dropped a peer's hint")
	}
}

// TestInboxMatchesSliceModel interleaves pushes (up to 40 at a time, or
// none to three chunks' worth), take and clear against a plain slice, holding the
// chunk list to its accounting at every step: the chunks it says it
// holds are the ones queued plus the spares, and they are as many as
// were ever queued at once.
func TestInboxMatchesSliceModel(t *testing.T) {
	var in inbox
	var model, got []message
	rng := rand.New(rand.NewSource(2))
	next, peak, peakChunks := 0, 0, 0
	for step := 0; step < 50000; step++ {
		switch op := rng.Intn(100); {
		case op < 40:
			for k := rng.Intn(40); k >= 0; k-- {
				m := message{from: int32(next)}
				next++
				in.push(m)
				model = append(model, m)
			}
		case op < 60:
			for k := rng.Intn(3*inboxChunkLen) * rng.Intn(2); k > 0; k-- {
				m := message{from: int32(next)}
				next++
				in.push(m)
				model = append(model, m)
			}
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
// hundred messages in, a budget out — goes through spare chunks and
// allocates nothing either, whatever the backlog did before.
func TestInboxRecyclesChunks(t *testing.T) {
	var in inbox
	flood := make([]message, 100*inboxChunkLen)
	pushEach := func(ms []message) {
		for _, m := range ms {
			in.push(m)
		}
	}
	pushEach(flood)
	if got := in.bytes(); got < int64(len(flood))*int64(unsafe.Sizeof(message{})) {
		t.Fatalf("inbox reports %d bytes for %d queued messages", got, len(flood))
	}
	buf := in.take(nil, len(flood))
	if in.chunks != 100 {
		t.Fatalf("drained flood leaves %d chunks held, want its 100", in.chunks)
	}
	if avg := testing.AllocsPerRun(3, func() {
		pushEach(flood)
		buf = in.take(buf[:0], len(flood))
	}); avg != 0 || in.chunks != 100 {
		t.Fatalf("second flood: %.2f allocs, %d chunks held; want 0 and 100", avg, in.chunks)
	}
	run := flood[:7]
	tick := func() {
		for k := 0; k < 60; k++ {
			pushEach(run)
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
				in.push(message{from: int32(i)})
			}
			var buf []message
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 256; k++ {
					in.push(message{from: int32(k)})
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

// hintTier is an eight-shard tier whose hint table is sized for a hot
// index of 1<<16 entries a shard: 16 384 slots a partition, 4 MiB in
// all, past L2.
func hintTier(b *testing.B) *Tier {
	tier, err := NewTier(8, Params{})
	if err != nil {
		b.Fatal(err)
	}
	tier.sizeHints(1 << 16)
	return tier
}

// BenchmarkHintPut is an owner's install: a stream of distinct
// fingerprints twice the table's size, so most installs overwrite.
func BenchmarkHintPut(b *testing.B) {
	tier := hintTier(b)
	fps := benchFPs(1 << 18)
	canon := alloc.MakeRemote(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tier.install(fps[i&(len(fps)-1)], canon)
	}
	failOnAllocs(b, "hint install", func() { tier.install(fps[0], canon) })
}

// BenchmarkHintGet is a request's lookup-stage probe of eight chunks its
// hot index missed, grouped by partition under the locks, against a
// table holding 64k bindings of shard 1's; half the probes hit. ns/probe
// is the figure to read.
func BenchmarkHintGet(b *testing.B) {
	tier := hintTier(b)
	fps := benchFPs(1 << 17)
	for _, fp := range fps[:len(fps)/2] {
		tier.install(fp, alloc.MakeRemote(1, 1))
	}
	const n = 8
	w := &engine.WriteOp{Chunks: make([]chunk.Chunk, n), Dup: make([]bool, n), Target: make([]alloc.PBA, n)}
	request := func(i int) {
		for k := range w.Chunks {
			w.Chunks[k].FP = fps[uint(i*n+k)*2654435761%uint(len(fps))]
			w.Dup[k] = false
		}
		tier.hint(0, w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
	failOnAllocs(b, "hint probe", func() { request(0) })
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/probe")
}

// BenchmarkAgentDrainGrants is the detected-duplicate side of the
// protocol: one tick's budget of targeted grants pushed and drained
// through the agent — fence check, fold queued — on a shard as loaded
// as a serving one. ns/grant is the figure to read.
func BenchmarkAgentDrainGrants(b *testing.B) {
	tier, agents := memCluster(b, 2, 32<<20, 1<<14)
	a := agents[0]
	fps := benchFPs(1 << 16)
	ep := tier.Epoch(1)
	tick := func(i int) {
		for k := 0; k < 256; k++ {
			fp := fps[(i*256+k)%len(fps)]
			tier.inbox[0].push(message{kind: msgGrant, fp: fp, canon: alloc.MakeRemote(1, 1), dup: alloc.PBA(k), from: 1, epoch: ep})
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
