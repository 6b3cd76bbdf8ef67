package globalfp

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
)

// modelTier is the partition tables as one Go map, landing ads one at a
// time in publishing order: the reference both tiers of checkPublish
// answer to.
type modelTier struct {
	shards                     int
	epoch                      []uint32
	down                       []bool
	tbl                        map[chunk.Fingerprint]tierEntry
	queued, stale, hints, dups int64
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
			peers := uint64(0)
			for s := 0; s < m.shards; s++ {
				if s != shard && !m.down[s] {
					peers |= 1 << uint(s)
				}
			}
			m.tbl[a.FP] = tierEntry{canon: enc, granted: peers}
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
}

// msgKey names one (destination, partition) message sequence; tier
// messages that name no fingerprint (crash notices) go under
// partition -1.
type msgKey struct{ to, part int }

// drainInto moves every queued message of t into log, per
// (destination, partition).
func drainInto(t *Tier, log map[msgKey][]message) {
	for to := range t.inbox {
		for _, m := range t.inbox[to].take(nil, t.inbox[to].len()) {
			k := msgKey{to, -1}
			if m.kind == msgPinReq {
				k.part = partOf(&m.fp)
			}
			log[k] = append(log[k], m)
		}
	}
}

// checkPublish decodes data into a run of operations and applies each
// to a tier that lands batches (publish), to a twin fed the same ads
// one at a time (advertise), and to modelTier. The first byte picks the
// shard count; the last shard is down throughout. Then each operation
// is a crash, a recovery (never of the last shard), a batch stamped
// with its publisher's previous epoch, or — most often — a batch of
// 1–12 ads from a pool of 40 fingerprints, each ad fresh or not. After
// every operation the two tiers and the model must agree on every
// table entry (canon and granted) and every counter, and the tiers on
// every message sequence per (destination, partition).
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
	model := &modelTier{shards: shards, epoch: make([]uint32, shards), down: make([]bool, shards), tbl: map[chunk.Fingerprint]tierEntry{}}
	crash := func(i int) {
		batched.CrashShard(i)
		twin.CrashShard(i)
		model.crash(i)
	}
	crash(shards - 1)
	pool := benchFPs(40)
	var sc pubScratch
	gotLog, wantLog := map[msgKey][]message{}, map[msgKey][]message{}

	for op := 0; len(data) >= 3; op++ {
		kind, s, n := data[0]%16, int(data[1])%shards, 1+int(data[2])%12
		data = data[3:]
		switch {
		case kind == 0:
			crash(s)
		case kind == 1:
			if s != shards-1 {
				batched.RecoverShard(s)
				twin.RecoverShard(s)
				model.down[s] = false
			}
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
		}
		drainInto(batched, gotLog)
		drainInto(twin, wantLog)
		comparePublished(t, op, batched, twin, model)
	}
	for k, want := range wantLog {
		if got := gotLog[k]; !slices.Equal(got, want) {
			t.Fatalf("to shard %d, partition %d: %d messages %v, want %d %v", k.to, k.part, len(got), got, len(want), want)
		}
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%d message sequences, want %d", len(gotLog), len(wantLog))
	}
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
	counters := func(t *Tier) [5]int64 {
		return [5]int64{t.adsQueued.Load(), t.staleDropped.Load(), t.hintsBroadcast.Load(), t.dupsDetected.Load(), t.downDropped.Load()}
	}
	g, w := counters(got), counters(want)
	if g != w {
		t.Fatalf("op %d: counters (queued, stale, hints, dups, down-dropped) %v, the twin's %v", op, g, w)
	}
	if mc := [4]int64{m.queued, m.stale, m.hints, m.dups}; [4]int64(g[:4]) != mc {
		t.Fatalf("op %d: counters (queued, stale, hints, dups) %v, the model's %v", op, g[:4], mc)
	}
}

// TestPublishLandsAsOneByOne: a batch lands exactly as its ads would
// one at a time — same tables, counters and per-(destination,
// partition) message order — over seeded random runs with repeated
// fingerprints, both kinds of ad, several publishers, a down shard,
// crashes, rejoins and stale epochs (checkPublish).
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
