package globalfp

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
)

// modelTier is the partition tables and the hint table as two Go maps,
// landing ads one at a time in publishing order: the reference both
// tiers of checkPublish answer to. Its hint table never evicts: no
// bucket of checkPublish's tables holds more than four of its 40
// fingerprints.
type modelTier struct {
	shards                     int
	epoch                      []uint32
	down                       []bool
	tbl                        map[chunk.Fingerprint]tierEntry
	bound                      map[chunk.Fingerprint]alloc.PBA
	queued, stale, hints, dups int64
	installs, hits, recalls    int64
}

func (m *modelTier) publish(shard int, epoch uint32, ads []engine.Ad) {
	for _, a := range ads {
		m.queued++
		if epoch != m.epoch[shard] || m.down[shard] {
			m.stale++
			continue
		}
		enc := alloc.MakeRemote(shard, a.PBA)
		e, ok := m.tbl[a.FP]
		if !ok {
			m.tbl[a.FP] = tierEntry{canon: enc}
			m.hints++
			continue
		}
		bit := uint64(1) << uint(shard)
		if owner, _ := alloc.RemoteParts(e.canon); e.canon == enc || owner == shard || !a.Fresh && e.granted&bit != 0 {
			continue
		}
		e.granted |= bit
		m.tbl[a.FP] = e
		m.dups++
	}
}

func (m *modelTier) crash(i int) {
	m.epoch[i]++
	m.down[i] = true
	for fp, e := range m.tbl {
		if owner, _ := alloc.RemoteParts(e.canon); owner == i {
			delete(m.tbl, fp)
		} else {
			e.granted &^= 1 << uint(i)
			m.tbl[fp] = e
		}
	}
	for fp, c := range m.bound {
		if owner, _ := alloc.RemoteParts(c); owner == i {
			delete(m.bound, fp)
		}
	}
}

// probe answers shard's lookup of fp: a binding to a canonical of
// another live shard.
func (m *modelTier) probe(shard int, fp chunk.Fingerprint) (alloc.PBA, bool) {
	c, ok := m.bound[fp]
	if owner, _ := alloc.RemoteParts(c); !ok || owner == shard || m.down[owner] {
		return 0, false
	}
	m.hits++
	return c, true
}

func (m *modelTier) recall(fp chunk.Fingerprint, shard int, pba alloc.PBA) uint64 {
	enc := alloc.MakeRemote(shard, pba)
	if e, ok := m.tbl[fp]; ok && e.canon == enc {
		delete(m.tbl, fp)
	}
	if m.bound[fp] == enc {
		delete(m.bound, fp)
	}
	m.recalls++
	peers := uint64(0)
	for s := 0; s < m.shards; s++ {
		if s != shard && !m.down[s] {
			peers |= 1 << uint(s)
		}
	}
	return peers
}

// msgKey names one (destination, partition) message sequence; tier
// messages that name no fingerprint (crash notices) go under
// partition -1.
type msgKey struct{ to, part int }

// drainInto moves every queued message of t into log, per
// (destination, partition), and answers each pin request as an owner
// that finds its canonical valid does: with an install. It returns the
// pin requests.
func drainInto(t *Tier, log map[msgKey][]message) []message {
	var reqs []message
	for to := range t.inbox {
		for _, m := range t.inbox[to].take(nil, t.inbox[to].len()) {
			k := msgKey{to, -1}
			if m.kind == msgPinReq {
				k.part = partOf(&m.fp)
				t.install(m.fp, m.canon)
				reqs = append(reqs, m)
			}
			log[k] = append(log[k], m)
		}
	}
	return reqs
}

// checkPublish decodes data into a run of operations and applies each
// to a tier that lands batches (publish) and probes a request's hints
// at once (hint), to a twin fed the same ads and probes one at a time,
// and to modelTier. The first byte picks the shard count; the last
// shard is down throughout. Then each operation is a crash, a recovery
// (never of the last shard), a batch stamped with its publisher's
// previous epoch, a request's hint probe of 1–12 chunks (some of them
// hot-index hits the probe skips), a recall, or — most often — a batch
// of 1–12 ads from a pool of 40 fingerprints, each ad fresh or not.
// Every pin request an operation causes is answered with its owner's
// install. After every operation the two tiers and the model must agree
// on every counter, on every probe's answer, and on the entry (canon
// and granted) and the hint of every fingerprint the operation touched
// — its ads, or the whole pool after a crash's sweep; every fullEvery
// operations and at the end, on every table entry and hint; and the
// tiers on every message sequence per (destination, partition).
func checkPublish(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	shards := 2 + int(data[0])%7
	data = data[1:]
	batched, err := NewTier(shards, Params{})
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := NewTier(shards, Params{})
	batched.sizeHints(1 << 9)
	twin.sizeHints(1 << 9)
	model := &modelTier{shards: shards, epoch: make([]uint32, shards), down: make([]bool, shards),
		tbl: map[chunk.Fingerprint]tierEntry{}, bound: map[chunk.Fingerprint]alloc.PBA{}}
	crash := func(i int) {
		batched.CrashShard(i)
		twin.CrashShard(i)
		model.crash(i)
	}
	crash(shards - 1)
	pool := benchFPs(40)
	var sc pubScratch
	gotLog, wantLog := map[msgKey][]message{}, map[msgKey][]message{}

	op := 0
	for ; len(data) >= 3; op++ {
		kind, s, n := data[0]%16, int(data[1])%shards, 1+int(data[2])%12
		data = data[3:]
		var touched []chunk.Fingerprint
		switch {
		case kind == 0:
			crash(s)
			touched = pool
		case kind == 1:
			if s != shards-1 {
				batched.RecoverShard(s)
				twin.RecoverShard(s)
				model.down[s] = false
			}
		case kind == 3:
			w := &engine.WriteOp{}
			for ; n > 0 && len(data) >= 1; n-- {
				fp := pool[data[0]%40]
				w.Chunks = append(w.Chunks, chunk.Chunk{FP: fp})
				w.Dup = append(w.Dup, data[0] >= 224) // a hot-index hit
				w.Target = append(w.Target, 0)
				touched = append(touched, fp)
				data = data[1:]
			}
			want := slices.Clone(w.Target)
			wantHit := slices.Clone(w.Dup)
			for i := range w.Chunks {
				if !w.Dup[i] {
					one := &engine.WriteOp{Chunks: w.Chunks[i : i+1], Dup: []bool{false}, Target: []alloc.PBA{0}}
					twin.hint(s, one)
					if c, ok := model.probe(s, w.Chunks[i].FP); c != one.Target[0] || ok != one.Dup[0] {
						t.Fatalf("op %d: shard %d's probe of %x: the twin's %#x,%v, the model's %#x,%v", op, s, w.Chunks[i].FP[:4], one.Target[0], one.Dup[0], c, ok)
					}
					want[i], wantHit[i] = one.Target[0], one.Dup[0]
				}
			}
			batched.hint(s, w)
			if !slices.Equal(w.Target, want) || !slices.Equal(w.Dup, wantHit) {
				t.Fatalf("op %d: shard %d's request probe found %#x %v, one at a time %#x %v", op, s, w.Target, w.Dup, want, wantHit)
			}
		case kind == 4:
			if len(data) < 2 {
				break
			}
			fp, pba := pool[data[0]%40], alloc.PBA(data[1]%4)
			data = data[2:]
			got, want := batched.Recall(fp, s, pba), twin.Recall(fp, s, pba)
			if m := model.recall(fp, s, pba); got != want || got != m {
				t.Fatalf("op %d: recall waits on %b, the twin's %b, the model's %b", op, got, want, m)
			}
			touched = append(touched, fp)
		default:
			epoch := batched.Epoch(s)
			if kind == 2 {
				if epoch == 0 {
					continue
				}
				epoch-- // stale: stamped in the shard's previous life
			}
			ads := make([]engine.Ad, 0, n)
			for ; n > 0 && len(data) >= 2; n-- {
				ads = append(ads, engine.Ad{FP: pool[data[0]%40], PBA: alloc.PBA(data[1] % 4), Fresh: data[1]&4 != 0})
				data = data[2:]
			}
			batched.publish(s, epoch, ads, &sc)
			for _, a := range ads {
				twin.advertise(s, epoch, a)
			}
			model.publish(s, epoch, ads)
			for _, a := range ads {
				touched = append(touched, a.FP)
			}
		}
		for _, m := range drainInto(batched, gotLog) {
			model.bound[m.fp] = m.canon
			model.installs++
		}
		drainInto(twin, wantLog)
		compareTouched(t, op, batched, twin, model, touched)
		if op%fullEvery == fullEvery-1 {
			comparePublished(t, op, batched, twin, model)
		}
	}
	comparePublished(t, op, batched, twin, model)
	for k, want := range wantLog {
		if got := gotLog[k]; !slices.Equal(got, want) {
			t.Fatalf("to shard %d, partition %d: %d messages %v, want %d %v", k.to, k.part, len(got), got, len(want), want)
		}
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%d message sequences, want %d", len(gotLog), len(wantLog))
	}
}

// fullEvery is how many operations checkPublish lets pass between full
// table comparisons: walking every partition's buckets of both tiers
// costs far more than an operation.
const fullEvery = 16

// compareTouched holds the batched tier to its twin and to the model on
// the entries and hints of fps, the entry counts and every counter.
func compareTouched(t *testing.T, op int, got, want *Tier, m *modelTier, fps []chunk.Fingerprint) {
	t.Helper()
	for _, fp := range fps {
		pi := partOf(&fp)
		e, ok := got.parts[pi].tbl.Get(fp)
		if we, wok := want.parts[pi].tbl.Get(fp); ok != wok || we != e {
			t.Fatalf("op %d: %x: entry %+v (%v), the twin's %+v (%v)", op, fp[:4], e, ok, we, wok)
		}
		if me, mok := m.tbl[fp]; ok != mok || me != e {
			t.Fatalf("op %d: %x: entry %+v (%v), the model's %+v (%v)", op, fp[:4], e, ok, me, mok)
		}
		compareHint(t, op, got, want, m, fp)
	}
	n, wn := 0, 0
	for pi := range got.parts {
		n, wn = n+got.parts[pi].tbl.Len(), wn+want.parts[pi].tbl.Len()
	}
	if n != wn || n != len(m.tbl) {
		t.Fatalf("op %d: %d entries, the twin %d, the model %d", op, n, wn, len(m.tbl))
	}
	compareCounters(t, op, got, want, m)
}

// comparePublished holds the batched tier to its twin and to the model:
// every partition table entry and every counter.
func comparePublished(t *testing.T, op int, got, want *Tier, m *modelTier) {
	t.Helper()
	n := 0
	for pi := range got.parts {
		if l, wl := got.parts[pi].tbl.Len(), want.parts[pi].tbl.Len(); l != wl {
			t.Fatalf("op %d: partition %d holds %d entries, the twin %d", op, pi, l, wl)
		}
		got.parts[pi].tbl.Each(func(fp chunk.Fingerprint, e tierEntry) bool {
			if we, ok := want.parts[pi].tbl.Get(fp); !ok || we != e {
				t.Fatalf("op %d: %x: entry %+v, the twin's %+v (%v)", op, fp[:4], e, we, ok)
			}
			if me, ok := m.tbl[fp]; !ok || me != e {
				t.Fatalf("op %d: %x: entry %+v, the model's %+v (%v)", op, fp[:4], e, me, ok)
			}
			n++
			return true
		})
	}
	if n != len(m.tbl) {
		t.Fatalf("op %d: %d entries, the model %d", op, n, len(m.tbl))
	}
	n = 0
	for pi := range got.parts {
		for _, sl := range got.parts[pi].hints.slots {
			if sl.canon != 0 {
				compareHint(t, op, got, want, m, sl.fp)
				n++
			}
		}
	}
	if n != len(m.bound) {
		t.Fatalf("op %d: %d hints, the model %d", op, n, len(m.bound))
	}
	compareCounters(t, op, got, want, m)
}

// compareHint holds the batched tier's hint for fp to the twin's and
// the model's. It is called for every hint a full comparison walks, so
// it does not mark itself a helper: that costs a stack walk a call.
func compareHint(t *testing.T, op int, got, want *Tier, m *modelTier, fp chunk.Fingerprint) {
	c, ok := got.bound(fp)
	if wc, wok := want.bound(fp); ok != wok || wc != c {
		t.Fatalf("op %d: %x: hint %#x (%v), the twin's %#x (%v)", op, fp[:4], c, ok, wc, wok)
	}
	if mc, mok := m.bound[fp]; ok != mok || mc != c {
		t.Fatalf("op %d: %x: hint %#x (%v), the model's %#x (%v)", op, fp[:4], c, ok, mc, mok)
	}
}

// compareCounters holds the batched tier's counters to the twin's and
// the model's. The hint table never overwrites: the model has no
// buckets.
func compareCounters(t *testing.T, op int, got, want *Tier, m *modelTier) {
	t.Helper()
	counters := func(t *Tier) [9]int64 {
		c := [9]int64{t.adsQueued.Load(), t.staleDropped.Load(), t.hintsBroadcast.Load(), t.dupsDetected.Load(), t.recalls.Load()}
		for pi := range t.parts {
			h := t.parts[pi].hints
			c[5], c[6], c[7] = c[5]+h.installs, c[6]+h.hits, c[7]+h.overwrites
		}
		c[8] = t.downDropped.Load()
		return c
	}
	g, w := counters(got), counters(want)
	if g != w {
		t.Fatalf("op %d: counters (queued, stale, hints, dups, recalls, installs, hits, overwrites, down-dropped) %v, the twin's %v", op, g, w)
	}
	if mc := [8]int64{m.queued, m.stale, m.hints, m.dups, m.recalls, m.installs, m.hits, 0}; [8]int64(g[:8]) != mc {
		t.Fatalf("op %d: counters (queued, stale, hints, dups, recalls, installs, hits, overwrites) %v, the model's %v", op, g[:8], mc)
	}
}

// TestPublishLandsAsOneByOne: a batch lands exactly as its ads would
// one at a time, and a request's hint probe answers as its probes would
// one at a time — same tables, hints, counters and per-(destination,
// partition) message order — over seeded random runs with repeated
// fingerprints, both kinds of ad, several publishers, owner installs,
// recalls, a down shard, crashes, rejoins and stale epochs
// (checkPublish).
func TestPublishLandsAsOneByOne(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 2000)
		rand.New(rand.NewSource(seed)).Read(data)
		checkPublish(t, data)
	}
}

// FuzzPublish runs checkPublish on arbitrary operation streams.
func FuzzPublish(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(checkPublish)
}

// BenchmarkPublishRequest lands one request's advertisements — a batch
// of seven, four first sightings and three ads of fingerprints the tier
// holds, one of them fresh — into a tier of 200 000 entries (8 MB of
// entries, past L2), as a loaded shard publishes them. Each batch's
// first sightings are deleted again after it, so the table stays that
// size; the figure, ns/ad, includes those deletes. It fails unless it
// runs at 0 allocs/op.
func BenchmarkPublishRequest(b *testing.B) {
	const held = 200_000
	tier, _ := NewTier(8, Params{})
	fps := benchFPs(held + 1<<16)
	var sc pubScratch
	var buf []message
	drain := func(min int) {
		for to := range tier.inbox {
			for tier.inbox[to].len() >= min && tier.inbox[to].len() > 0 {
				buf = tier.inbox[to].take(buf[:0], 4096)
			}
		}
	}
	fill := make([]engine.Ad, 0, adRun)
	for i, fp := range fps[:held] {
		if fill = append(fill, engine.Ad{FP: fp, PBA: alloc.PBA(i), Fresh: true}); len(fill) == adRun || i == held-1 {
			tier.publish(1, 0, fill, &sc)
			fill = fill[:0]
			drain(0)
		}
	}
	fresh := fps[held:]
	batch := make([]engine.Ad, 7)
	request := func(i int) {
		for k := range batch {
			if k%2 == 0 {
				batch[k] = engine.Ad{FP: fresh[(4*i+k/2)%len(fresh)], PBA: alloc.PBA(k), Fresh: true}
			} else {
				batch[k] = engine.Ad{FP: fps[uint(7*i+k)*2654435761%held], PBA: alloc.PBA(k), Fresh: k == 3}
			}
		}
		tier.publish(0, 0, batch, &sc)
		for k := 0; k < len(batch); k += 2 {
			tier.part(batch[k].FP).tbl.Delete(batch[k].FP)
		}
		drain(256)
	}
	request(0) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
	failOnAllocs(b, "publish", func() { request(0) })
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(batch)*b.N), "ns/ad")
}
