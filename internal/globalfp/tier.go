package globalfp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/probe"
)

// tierEntry is one fingerprint's record: the canonical copy and the
// shards already granted a hint for it (suppresses duplicate-ad
// re-grant storms; fresh advertisements may always re-grant, which is
// how settlement re-advertisement retries faulted folds).
type tierEntry struct {
	canon   alloc.PBA // remote-encoded owner+pba
	granted uint64    // beneficiary shards already granted
}

// partition is one fingerprint partition: its own table and lock, so
// publishers on different shards rarely contend.
type partition struct {
	mu  sync.Mutex
	tbl *probe.Map[chunk.Fingerprint, tierEntry]
}

// Tier is the global fingerprint tier shared by every shard of one
// server: fingerprint-partitioned tables that advertisements land on in
// the publishing call, plus the reliable control inboxes the shard
// agents drain.
type Tier struct {
	shards int
	parts  []partition
	inbox  []inbox
	agents []*Agent

	// Per-shard failure-domain state. epochs[i] is shard i's fencing
	// epoch, bumped by CrashShard; down[i] marks the shard crashed
	// (messages toward it are dropped, it is excluded from beneficiary
	// sets) until RecoverShard clears it.
	epochs []atomic.Uint32
	down   []atomic.Bool

	adsQueued      atomic.Int64
	dupsDetected   atomic.Int64
	hintsBroadcast atomic.Int64
	tableFixes     atomic.Int64
	recalls        atomic.Int64
	staleDropped   atomic.Int64
	downDropped    atomic.Int64
	crashSweeps    atomic.Uint32 // CrashShard calls; numbers the notices
}

// NewTier builds the tier for a server of the given shard count.
// Beneficiary sets are shard bitmasks, so the tier supports 2–64 shards.
func NewTier(shards int, _ Params) (*Tier, error) {
	if shards < 2 {
		return nil, fmt.Errorf("globalfp: tier needs at least 2 shards (got %d); a single shard already sees the whole content stream", shards)
	}
	if shards > 64 {
		return nil, fmt.Errorf("globalfp: tier supports at most 64 shards (got %d)", shards)
	}
	t := &Tier{
		shards: shards,
		parts:  make([]partition, partitions),
		inbox:  make([]inbox, shards),
		agents: make([]*Agent, shards),
		epochs: make([]atomic.Uint32, shards),
		down:   make([]atomic.Bool, shards),
	}
	for i := range t.parts {
		t.parts[i].tbl = probe.NewMap[chunk.Fingerprint, tierEntry](1 << 12)
	}
	return t, nil
}

func (t *Tier) register(shard int, a *Agent) {
	if t.agents[shard] != nil {
		panic(fmt.Sprintf("globalfp: shard %d attached twice", shard))
	}
	t.agents[shard] = a
}

// partOf is the partition fp's advertisements land on.
func partOf(fp *chunk.Fingerprint) int {
	return int(binary.LittleEndian.Uint64(fp[:8]) % partitions)
}

func (t *Tier) part(fp chunk.Fingerprint) *partition { return &t.parts[partOf(&fp)] }

// send delivers a control message to a shard's inbox. Messages toward
// a down shard are dropped (counted): the dead peer cannot process
// them, its inbox is cleared on crash and recovery anyway, and the
// rejoin remote-reference scan is the authoritative re-audit for any
// pin traffic lost this way.
func (t *Tier) send(shard int, m message) {
	if t.down[shard].Load() {
		t.downDropped.Add(1)
		return
	}
	t.inbox[shard].push(m)
}

// sendAll delivers a run of control messages to one shard's inbox in
// order, under one lock hold; toward a down shard the whole run is
// dropped and counted, message for message as send would.
func (t *Tier) sendAll(shard int, ms []message) {
	if t.down[shard].Load() {
		t.downDropped.Add(int64(len(ms)))
		return
	}
	t.inbox[shard].pushAll(ms)
}

// Epoch reports a shard's current fencing epoch.
func (t *Tier) Epoch(shard int) uint32 { return t.epochs[shard].Load() }

// Down reports whether a shard is currently marked crashed.
func (t *Tier) Down(shard int) bool { return t.down[shard].Load() }

// downMask is the bitmask of currently-down shards.
func (t *Tier) downMask() uint64 {
	var m uint64
	for i := range t.down {
		if t.down[i].Load() {
			m |= uint64(1) << uint(i)
		}
	}
	return m
}

// peers is the set of every live shard but shard: the beneficiaries of
// a first sighting it advertises, and the peers a recall it starts must
// hear from.
func (t *Tier) peers(shard int) uint64 {
	return (uint64(1)<<uint(t.shards) - 1) &^ (uint64(1) << uint(shard)) &^ t.downMask()
}

// fenced reports whether ads shard stamped with epoch are dropped: an
// advertisement from a shard's previous life, or from a shard marked
// down, must not register a freed block as canonical.
func (t *Tier) fenced(shard int, epoch uint32) bool {
	return epoch != t.epochs[shard].Load() || t.down[shard].Load()
}

// pubScratch is a publisher's reusable scratch for landing a batch: the
// ads grouped by partition, their fingerprints beside them for the
// warm, and one partition run's pin requests staged per destination.
type pubScratch struct {
	ads []engine.Ad
	fps []chunk.Fingerprint
	out [][]message
}

// publish lands a batch of advertisements from shard, stamped with
// epoch, before returning: the request-sized batch the write path
// publishes, or a run of ReAdvertise's. Callers hold the publishing
// shard's lock, and Tier.CrashShard runs under every shard lock, so no
// epoch or down flag can change mid-batch: the fence and the
// beneficiary set are read once. The ads are grouped by partition,
// stably, so each partition sees them in publishing order; each
// partition's run lands under one lock hold, its table buckets warmed
// first, and the pin requests it implies leave, one pushAll per
// destination, before the partition lock does — the shard → partition
// → inbox order of every other tier call.
func (t *Tier) publish(shard int, epoch uint32, ads []engine.Ad, sc *pubScratch) {
	if len(ads) == 0 {
		return
	}
	t.adsQueued.Add(int64(len(ads)))
	if t.fenced(shard, epoch) {
		t.staleDropped.Add(int64(len(ads)))
		return
	}
	peers := t.peers(shard)

	// A counting sort by partition: start[p] is where partition p's
	// run begins in the scratch.
	var start [partitions + 1]int
	for i := range ads {
		start[partOf(&ads[i].FP)+1]++
	}
	for p := 1; p <= partitions; p++ {
		start[p] += start[p-1]
	}
	next := start
	sc.ads = slices.Grow(sc.ads[:0], len(ads))[:len(ads)]
	sc.fps = slices.Grow(sc.fps[:0], len(ads))[:len(ads)]
	for i := range ads {
		k := &next[partOf(&ads[i].FP)]
		sc.ads[*k], sc.fps[*k] = ads[i], ads[i].FP
		*k++
	}
	if len(sc.out) < t.shards {
		sc.out = make([][]message, t.shards)
	}

	var hints, dups int64
	for pi := range t.parts {
		lo, hi := start[pi], start[pi+1]
		if lo == hi {
			continue
		}
		p := &t.parts[pi]
		var dests uint64
		p.mu.Lock()
		for ; lo < hi; lo += warmRun {
			end := min(lo+warmRun, hi)
			p.tbl.Warm(sc.fps[lo:end])
			for k := lo; k < end; k++ {
				to, m, ok := t.processAd(p, shard, epoch, &sc.ads[k], peers)
				if !ok {
					continue
				}
				if m.hasDup {
					dups++
				} else {
					hints++
				}
				sc.out[to] = append(sc.out[to], m)
				dests |= uint64(1) << uint(to)
			}
		}
		for ; dests != 0; dests &= dests - 1 {
			to := bits.TrailingZeros64(dests)
			t.sendAll(to, sc.out[to])
			sc.out[to] = sc.out[to][:0]
		}
		p.mu.Unlock()
	}
	if hints > 0 {
		t.hintsBroadcast.Add(hints)
	}
	if dups > 0 {
		t.dupsDetected.Add(dups)
	}
}

// Advertise lands one (fingerprint, shard, PBA) sighting, the way
// publish lands a batch of one. It stays because bench/ladder.go times
// it (globalfp.advertise_ns); the write path publishes through its
// agent in batches.
func (t *Tier) Advertise(shard int, fp chunk.Fingerprint, pba alloc.PBA, fresh bool) {
	t.advertise(shard, t.epochs[shard].Load(), engine.Ad{FP: fp, PBA: pba, Fresh: fresh})
}

// advertise is Advertise with the ad's epoch stamp given: one fence,
// one partition lock hold and one send per ad.
func (t *Tier) advertise(shard int, epoch uint32, a engine.Ad) {
	t.adsQueued.Add(1)
	if t.fenced(shard, epoch) {
		t.staleDropped.Add(1)
		return
	}
	p := t.part(a.FP)
	p.mu.Lock()
	if to, m, ok := t.processAd(p, shard, epoch, &a, t.peers(shard)); ok {
		t.send(to, m)
		if m.hasDup {
			t.dupsDetected.Add(1)
		} else {
			t.hintsBroadcast.Add(1)
		}
	}
	p.mu.Unlock()
}

// Stop does nothing: no ad waits anywhere to be drained. It stays
// because bench/ladder.go calls it.
func (t *Tier) Stop() {}

// processAd lands one advertisement from shard, stamped with epoch, on
// partition p, whose lock the caller holds. It returns the pin request
// the ad implies, if any, and the shard to send it to; peers is the
// beneficiary set of a first sighting.
func (t *Tier) processAd(p *partition, shard int, epoch uint32, a *engine.Ad, peers uint64) (int, message, bool) {
	enc := alloc.MakeRemote(shard, a.PBA)
	e, first := p.tbl.Ref(a.FP)
	if first {
		// First sighting: register the canonical and ask its owner to
		// grant index hints to every other shard — the proactive push
		// that lets a peer's first write of this content deduplicate
		// inline instead of becoming a per-shard duplicate copy.
		// Currently-down shards are excluded from the beneficiary set;
		// they re-learn hints from fresh advertisements after rejoin.
		*e = tierEntry{canon: enc, granted: peers}
		return shard, message{kind: msgPinReq, fp: a.FP, canon: enc, bene: peers, from: shard, epoch: epoch}, true
	}
	if e.canon == enc {
		return 0, message{}, false // the canonical advertising itself
	}
	owner, _ := alloc.RemoteParts(e.canon)
	if owner == shard {
		// another copy on the canonical's own shard: the local
		// scanner's cursor sweep merges same-shard duplicates
		return 0, message{}, false
	}
	// Cross-shard duplicate detected: (re-)grant the advertiser a hint
	// with a targeted fold of its copy. Duplicate-hit ads for an
	// already-granted shard are suppressed (the fold is in flight);
	// fresh ads always re-grant, so settlement re-advertisement
	// retries candidates an injected fault aborted.
	bit := uint64(1) << uint(shard)
	if !a.Fresh && e.granted&bit != 0 {
		return 0, message{}, false
	}
	e.granted |= bit
	return owner, message{
		kind: msgPinReq, fp: a.FP, canon: e.canon,
		bene: bit, dup: a.PBA, hasDup: true,
		from: shard, epoch: epoch,
	}, true
}

// Fix drops a table entry whose canonical failed owner-side validation
// (freed or overwritten before the pin request landed — the stale-ad
// case). The next fresh advertisement re-registers the fingerprint.
func (t *Tier) Fix(fp chunk.Fingerprint, canon alloc.PBA) {
	p := t.part(fp)
	p.mu.Lock()
	if e, ok := p.tbl.Find(fp); ok && e.canon == canon {
		p.tbl.Delete(fp)
	}
	p.mu.Unlock()
	t.tableFixes.Add(1)
}

// Recall starts reclaiming a canonical whose owner paroled it: the
// table entry is dropped, so no new grant can name the block. Returns
// the bitmask of peers the owner must now revoke and collect acks from
// before it releases the hinted pin; currently-down peers are excluded
// up front (they hold no hint, and their rejoin re-audit covers any
// reference they journaled before crashing).
func (t *Tier) Recall(fp chunk.Fingerprint, shard int, pba alloc.PBA) uint64 {
	enc := alloc.MakeRemote(shard, pba)
	p := t.part(fp)
	p.mu.Lock()
	if e, ok := p.tbl.Find(fp); ok && e.canon == enc {
		p.tbl.Delete(fp)
	}
	p.mu.Unlock()
	t.recalls.Add(1)
	return t.peers(shard)
}

// CrashShard marks shard i a dead failure domain: its fencing epoch is
// bumped (everything it sent in its previous life is now stale), its
// inbox is discarded, every other shard's hint table drops the bindings
// naming its canonicals (its recovery may free them), and the partition
// tables drop only its state — entries whose canonical it owns are
// deleted, and its bit is cleared from surviving entries' granted masks
// so post-rejoin advertisements re-grant it. The survivors' canonicals,
// pins, and hints on each other stay live.
//
// Every other live shard then finds a msgPeerDown notice in its inbox,
// stamped with i's new epoch and numbered by this crash: it stands in
// for the acks i will never send. Callers must ensure no shard is
// mid-Tick or mid-publish (the serving layer holds every shard lock),
// so everything i sent is queued by now and the notice lands behind it.
func (t *Tier) CrashShard(i int) {
	ep := t.epochs[i].Add(1)
	t.down[i].Store(true)
	t.inbox[i].clear()
	notice := message{kind: msgPeerDown, from: i, epoch: ep, seq: t.crashSweeps.Add(1)}
	for j := range t.inbox {
		if j != i {
			t.send(j, notice)
		}
	}
	for j, a := range t.agents {
		if j != i && a != nil {
			a.hints.dropOwner(i)
		}
	}
	bit := uint64(1) << uint(i)
	var dead []chunk.Fingerprint
	for pi := range t.parts {
		p := &t.parts[pi]
		p.mu.Lock()
		dead = dead[:0]
		p.tbl.Each(func(fp chunk.Fingerprint, e tierEntry) bool {
			if owner, _ := alloc.RemoteParts(e.canon); owner == i {
				dead = append(dead, fp)
			} else if e.granted&bit != 0 {
				e.granted &^= bit
				p.tbl.Put(fp, e)
			}
			return true
		})
		for _, fp := range dead {
			p.tbl.Delete(fp)
		}
		p.mu.Unlock()
	}
}

// RecoverShard marks shard i live again after the serving layer rebuilt
// its engine state. The inbox is cleared once more (fenced stragglers
// from before the crash carry no information) and the down flag drops,
// so the shard re-enters beneficiary sets and may advertise under its
// new epoch. Idempotent.
func (t *Tier) RecoverShard(i int) {
	t.inbox[i].clear()
	t.down[i].Store(false)
}

// Reset drops all volatile tier state — partition tables and queued
// control messages — after a crash; the serving layer re-pins
// canonicals from the recovered shard maps and the tables are
// re-learned from fresh advertisements (rebuild-on-recover, no new
// journal).
func (t *Tier) Reset() {
	for i := range t.parts {
		p := &t.parts[i]
		p.mu.Lock()
		p.tbl = probe.NewMap[chunk.Fingerprint, tierEntry](1 << 12)
		p.mu.Unlock()
	}
	for i := range t.inbox {
		t.inbox[i].clear()
	}
	for i := range t.down {
		t.down[i].Store(false)
	}
}

// Backlog reports the total queued control messages across all shard
// inboxes (settlement polls it toward zero).
func (t *Tier) Backlog() int {
	n := 0
	for i := range t.inbox {
		n += t.inbox[i].len()
	}
	return n
}

// Instrument publishes the tier's lifetime counters and its table size
// into reg as live gauges. The counters are atomics, read bare; only
// globalfp_table_entries takes the partition locks, one at a time.
func (t *Tier) Instrument(reg *metrics.Registry) {
	reg.GaugeFunc("globalfp_ads_queued", t.adsQueued.Load)
	reg.GaugeFunc("globalfp_dups_detected", t.dupsDetected.Load)
	reg.GaugeFunc("globalfp_hints_broadcast", t.hintsBroadcast.Load)
	reg.GaugeFunc("globalfp_table_fixes", t.tableFixes.Load)
	reg.GaugeFunc("globalfp_recalls", t.recalls.Load)
	reg.GaugeFunc("globalfp_stale_dropped", t.staleDropped.Load)
	reg.GaugeFunc("globalfp_down_dropped", t.downDropped.Load)
	reg.GaugeFunc("globalfp_table_entries", func() int64 {
		var n int64
		for i := range t.parts {
			p := &t.parts[i]
			p.mu.Lock()
			n += int64(p.tbl.Len())
			p.mu.Unlock()
		}
		return n
	})
}
