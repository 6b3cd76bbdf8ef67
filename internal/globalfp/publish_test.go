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
// landing ads one at a time in publishing order, and each shard's recall
// rounds: the reference both tiers of checkPublish, and the batched
// tier's agents, answer to. Its hint table never evicts: no bucket of
// checkPublish's tables holds more than four of its 40 fingerprints.
type modelTier struct {
	shards                     int
	epoch                      []uint32
	down                       []bool
	tbl                        map[chunk.Fingerprint]tierEntry
	bound                      map[chunk.Fingerprint]alloc.PBA
	queued, stale, hints, dups int64
	installs, hits, recalls    int64

	owners  []modelOwner
	crashes uint32
	held    map[shardBlock]bool // every paroled block: is its pin still held?
}

// modelOwner is one shard's recall rounds: the pins recalled since its
// open round opened, that round's pins (none: no round is open), the
// peers it still owes an ack and the crash count when it opened, and
// the round traffic queued toward the shard, in arrival order.
type modelOwner struct {
	queued, round                        []alloc.PBA
	owed                                 uint64
	since                                uint32
	inbox                                []message
	recalled, released, rounds, implicit int64
	stale                                int64 // round messages dropped as stale
}

type shardBlock struct {
	shard int
	pba   alloc.PBA
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
	m.crashes++
	o := &m.owners[i]
	o.queued, o.round, o.owed, o.inbox = nil, nil, 0, nil // its pins are never released
	for j := range m.owners {
		if j != i && !m.down[j] {
			m.owners[j].inbox = append(m.owners[j].inbox, message{kind: msgPeerDown, from: int32(i), epoch: m.epoch[i], seq: m.crashes})
		}
	}
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

func (m *modelTier) recall(fp chunk.Fingerprint, shard int, pba alloc.PBA) {
	enc := alloc.MakeRemote(shard, pba)
	if e, ok := m.tbl[fp]; ok && e.canon == enc {
		delete(m.tbl, fp)
	}
	if m.bound[fp] == enc {
		delete(m.bound, fp)
	}
	m.recalls++
}

// parole recalls shard's paroled block pba, holding fp: its entry and
// binding go, and its pin joins the next round.
func (m *modelTier) parole(shard int, fp chunk.Fingerprint, pba alloc.PBA) {
	m.recall(fp, shard, pba)
	o := &m.owners[shard]
	o.queued = append(o.queued, pba)
	o.recalled++
	m.held[shardBlock{shard, pba}] = true
	m.settle(shard)
}

// settle releases the open round's pins of shard once it owes no ack,
// then opens a round over the queued pins, a barrier to each live peer.
func (m *modelTier) settle(shard int) {
	o := &m.owners[shard]
	for o.owed == 0 {
		for _, pba := range o.round {
			m.held[shardBlock{shard, pba}] = false
			o.released++
		}
		o.round = nil
		if len(o.queued) == 0 {
			return
		}
		o.round, o.queued, o.since = o.queued, nil, m.crashes
		o.rounds++
		for p := range m.owners {
			if p != shard && !m.down[p] {
				o.owed |= 1 << uint(p)
				m.owners[p].inbox = append(m.owners[p].inbox, message{kind: msgBarrier, from: int32(shard), epoch: m.epoch[shard]})
			}
		}
	}
}

// deliver has shard handle the first n messages of its round traffic.
// A message its sender's crash made stale is dropped; a barrier is
// acked; an ack, or a crash notice newer than the open round, clears
// the peer it owed.
func (m *modelTier) deliver(shard, n int) {
	o := &m.owners[shard]
	msgs := o.inbox[:n]
	o.inbox = o.inbox[n:]
	for _, msg := range msgs {
		bit := uint64(1) << uint(msg.from)
		switch {
		case msg.epoch != m.epoch[msg.from]:
			o.stale++
		case msg.kind == msgBarrier:
			if !m.down[msg.from] {
				m.owners[msg.from].inbox = append(m.owners[msg.from].inbox, message{kind: msgAck, from: int32(shard), epoch: m.epoch[shard]})
			}
		case msg.kind == msgAck:
			o.owed &^= bit
			m.settle(shard)
		case msg.kind == msgPeerDown && o.since < msg.seq && o.owed&bit != 0:
			o.implicit++
			o.owed &^= bit
			m.settle(shard)
		}
	}
}

// msgKey names one (destination, partition) message sequence; tier
// messages that name no fingerprint (crash notices) go under
// partition -1.
type msgKey struct{ to, part int }

// drainInto moves every queued message of t into log, per
// (destination, partition), and answers each pin request as an owner
// that finds its canonical valid does: with an install. It returns the
// pin requests. With rounds given, the round traffic — barriers, acks
// and crash notices — also joins rounds[to], where it waits for the
// destination agent's next delivery; barriers and acks, which only the
// agents send, stay out of log.
func drainInto(t *Tier, log map[msgKey][]message, rounds [][]message) []message {
	var reqs []message
	for to := range t.inbox {
		for _, m := range t.inbox[to].take(nil, t.inbox[to].len()) {
			if m.kind != msgPinReq && rounds != nil {
				rounds[to] = append(rounds[to], m)
			}
			if m.kind == msgBarrier || m.kind == msgAck {
				continue
			}
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
// at once (hint), with an agent seated for every shard, to a twin fed
// the same ads and probes one at a time, and to modelTier. The first
// byte picks the shard count; the last shard is down throughout. Then
// each operation is a crash, a recovery (never of the last shard), a
// batch stamped with its publisher's previous epoch, a request's hint
// probe of 1–12 chunks (some of them hot-index hits the probe skips), a
// tier recall, a live agent's recall of a paroled block holding one of
// the pool's contents (queued, or opening a round), a live agent's
// delivery of 1–12 messages of its round traffic (barriers, acks, crash
// notices), or — most often — a batch of 1–12 ads from a pool of 40
// fingerprints, each ad fresh or not. Every pin request an operation
// causes is answered with its owner's install. After every operation
// the two tiers and the model must agree on every counter, on every
// probe's answer, and on the entry (canon and granted) and the hint of
// every fingerprint the operation touched — its ads, or the whole pool
// after a crash's sweep; every fullEvery operations and at the end, on
// every table entry and hint; the tiers on every message sequence per
// (destination, partition); and every agent and the model on its queued
// and open-round pins, the peers the round waits on, its counters, its
// undelivered round traffic and which paroled blocks still hold a pin.
func checkPublish(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	shards := 2 + int(data[0])%7
	data = data[1:]
	batched, agents := memCluster(t, shards, fuzzMemBytes, fuzzDiskBlocks)
	twin, _ := NewTier(shards, Params{})
	batched.sizeHints(1 << 9)
	twin.sizeHints(1 << 9)
	model := &modelTier{shards: shards, epoch: make([]uint32, shards), down: make([]bool, shards),
		tbl: map[chunk.Fingerprint]tierEntry{}, bound: map[chunk.Fingerprint]alloc.PBA{},
		owners: make([]modelOwner, shards), held: map[shardBlock]bool{}}
	rounds := make([][]message, shards) // the agents' undelivered round traffic
	crash := func(i int) {
		batched.CrashShard(i)
		agents[i].RecoverReset()
		rounds[i] = nil
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
				rounds[s] = nil
				twin.RecoverShard(s)
				model.down[s] = false
				model.owners[s].inbox = nil
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
			batched.Recall(fp, s, pba)
			twin.Recall(fp, s, pba)
			model.recall(fp, s, pba)
			touched = append(touched, fp)
		case kind == 5:
			if b := agents[s].b; model.down[s] || len(data) < 1 || b.Alloc.Used() == b.DataBlocks() {
				break // a long input can hold every block of a small shard
			}
			k := int(data[0]) % len(pool)
			data = data[1:]
			fp := pool[k]
			pba := paroled(t, agents[s], chunk.ContentID(k+1)) // pool[k]'s content
			agents[s].processParole(-1)
			twin.Recall(fp, s, pba)
			model.parole(s, fp, pba)
			touched = append(touched, fp)
		case kind == 6:
			if model.down[s] {
				break
			}
			n = min(n, len(rounds[s]))
			for _, m := range rounds[s][:n] {
				batched.inbox[s].push(m)
			}
			rounds[s] = rounds[s][n:]
			agents[s].drainMsgs(0, n)
			model.deliver(s, n)
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
		for _, m := range drainInto(batched, gotLog, rounds) {
			model.bound[m.fp] = m.canon
			model.installs++
		}
		drainInto(twin, wantLog, nil)
		compareTouched(t, op, batched, twin, model, touched)
		compareRounds(t, op, agents, rounds, model)
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

// checkPublish seats its agents on the smallest shards that build: the
// hint table is sized apart, and every block a recall names is one the
// op fabricated.
const fuzzMemBytes, fuzzDiskBlocks = 64 * 1024, 1 << 8

// compareRounds holds every agent to the model's owner: the pins queued
// and in the open round, the peers it waits on and since when, the
// counters, the round traffic still to deliver, and the pin of every
// paroled block — held until its round is acked, gone (and the block
// freed) after.
func compareRounds(t *testing.T, op int, agents []*Agent, rounds [][]message, m *modelTier) {
	t.Helper()
	for s, a := range agents {
		o := &m.owners[s]
		if !slices.Equal(a.recallQ, o.queued) || !slices.Equal(a.round, o.round) || a.waiting != o.owed || len(o.round) > 0 && a.since != o.since {
			t.Fatalf("op %d: shard %d: queued %v, round %v waiting on %b since %d; the model's %v, %v, %b, %d",
				op, s, a.recallQ, a.round, a.waiting, a.since, o.queued, o.round, o.owed, o.since)
		}
		if got, want := [4]int64{a.recallsSent, a.recallsDone, a.rounds, a.implicitGrants}, [4]int64{o.recalled, o.released, o.rounds, o.implicit}; got != want {
			t.Fatalf("op %d: shard %d: counters (recalled, released, rounds, implicit grants) %v, the model's %v", op, s, got, want)
		}
		if len(rounds[s]) != len(o.inbox) {
			t.Fatalf("op %d: shard %d: %d messages to deliver, the model's %d", op, s, len(rounds[s]), len(o.inbox))
		}
		for i, msg := range rounds[s] {
			if want := o.inbox[i]; msg.kind != want.kind || msg.from != want.from || msg.epoch != want.epoch || msg.seq != want.seq {
				t.Fatalf("op %d: shard %d: message %d is %+v, the model's %+v", op, s, i, msg, want)
			}
		}
	}
	for k, held := range m.held {
		b := agents[k.shard].b
		want := 0
		if held {
			want = 1
		}
		if _, live := b.Store.Read(k.pba); b.Map.PinCount(k.pba) != want || live != held {
			t.Fatalf("op %d: shard %d block %d: %d pins, live %v; the model holds its pin: %v", op, k.shard, k.pba, b.Map.PinCount(k.pba), live, held)
		}
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
	for i := range m.owners {
		g[1] -= m.owners[i].stale // the agents' drops: the twin seats none
	}
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
