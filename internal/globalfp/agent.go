package globalfp

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
)

// foldMaxBacklog gates fold I/O the way the scanner gates sweeps: remap
// candidates wait while more than this much queued disk work is ahead
// of them, so folding never inflates foreground sojourn.
const foldMaxBacklog = 2 * sim.Millisecond

// foldStepInterval paces fold steps in virtual time. The backlog gate
// alone is not enough under sustained load: between back-to-back
// requests the disk queue momentarily looks drained, and an ungated
// agent would slot a revalidation read into every such gap — tens of
// thousands of injected I/Os that foreground requests then queue
// behind. One budgeted step per interval bounds fold I/O to a few
// percent of disk time; whatever is still queued at Close settles
// after the serving window, where it costs no sojourn at all.
const foldStepInterval = 200 * sim.Millisecond

// paroleBudget bounds recalls started per fold step.
const paroleBudget = 16

// foldReq is one queued remap candidate: fold the local duplicate dup
// onto the remote canonical the hint for fp names.
type foldReq struct {
	dup   alloc.PBA
	fp    chunk.Fingerprint
	canon alloc.PBA
}

// recallState tracks one in-flight revoke round: the bitmask of peers
// whose acks are still outstanding, and the tier's crash count when the
// round started — a crash notice numbered above it covers the round.
type recallState struct {
	waiting uint64
	since   uint32
}

// Agent is a shard's endpoint of the global fingerprint tier: an
// engine.BackgroundTask wrapping the shard's bgdedup scanner (the tier
// requires background dedup — candidates apply through its revalidated
// merge path). It publishes the shard's advertisements, drains the
// shard's control inbox every tick (never idle-gated: hints must land
// under load) into the shard's hint table, answers the write path's
// lookup-stage Hint probes from it, applies budgeted remap folds in idle
// windows, and runs the owner-side pin/parole/recall protocol.
//
// All agent state is guarded by the shard lock: every entry point —
// Tick/Flush and the engine.Tier calls via the engine,
// settlement via the server — runs with the shard's mutex held. Tier
// calls made from here (publish, Fix, Recall) take partition locks,
// never shard locks, so the shard → partition lock order is acyclic.
type Agent struct {
	b     *engine.Base
	t     *Tier
	shard int
	inner *bgdedup.Scanner
	core  *bgdedup.Core

	hints     *hintTable // every tier hint this shard holds
	foldQ     []foldReq
	nextFold  sim.Time
	paroleQ   []alloc.PBA
	recalling map[alloc.PBA]recallState // local canonical → revoke round
	hinted    []uint64                  // bitset: local blocks holding the hinted pin
	msgBuf    []message                 // inbox drain scratch
	pub       pubScratch                // publish's grouping scratch
	freeBuf   [1]alloc.PBA

	// out[s] is the run of messages toward shard s staged by the
	// drainMsgs call in progress (staging); empty whenever none is.
	out     [][]message
	staging bool

	hintsInstalled int64
	remapsApplied  int64
	remapsRejected int64
	reclaimed      int64
	pinsGranted    int64
	pinRejects     int64
	refPins        int64
	refUnpins      int64
	recallsSent    int64
	recallsDone    int64
	implicitGrants int64
	staleDropped   int64
}

// New builds the agent on a shard engine's substrate, interposes it as
// the engine's background task and tier seat, and registers its gauges.
// The shard's scanner must already be attached (the serving layer checks):
// the agent wraps it and folds through its Core, so folds show in the
// bgdedup gauges too. The hint table gets as many slots as the shard's
// hot index has entries right now: a hint is worth what an index entry
// is worth, and the table must not outgrow the cache it serves.
func New(b *engine.Base, t *Tier, shard int) *Agent {
	inner := b.Background.(*bgdedup.Scanner)
	a := &Agent{
		b: b, t: t, shard: shard,
		inner:     inner,
		core:      inner.Core(),
		hints:     newHintTable(b.IC.IndexCapTotal()),
		recalling: make(map[alloc.PBA]recallState),
		hinted:    make([]uint64, (b.DataBlocks()+63)/64),
		out:       make([][]message, t.shards),
	}
	b.Background = a
	b.SetTier(a)
	t.register(shard, a)

	b.Reg.GaugeFunc("globalfp_hints_installed", func() int64 { return a.hintsInstalled })
	b.Reg.GaugeFunc("globalfp_hint_hits", func() int64 { return a.hints.hits })
	b.Reg.GaugeFunc("globalfp_hint_overwrites", func() int64 { return a.hints.overwrites })
	b.Reg.GaugeFunc("globalfp_hint_table_bytes", a.hints.bytes)
	b.Reg.GaugeFunc("globalfp_inbox_peak_msgs", t.inbox[shard].peakLen)
	b.Reg.GaugeFunc("globalfp_inbox_bytes", t.inbox[shard].bytes)
	b.Reg.GaugeFunc("globalfp_remaps_applied", func() int64 { return a.remapsApplied })
	b.Reg.GaugeFunc("globalfp_remaps_rejected", func() int64 { return a.remapsRejected })
	b.Reg.GaugeFunc("globalfp_reclaimed_blocks", func() int64 { return a.reclaimed })
	b.Reg.GaugeFunc("globalfp_pins_granted", func() int64 { return a.pinsGranted })
	b.Reg.GaugeFunc("globalfp_pin_rejects", func() int64 { return a.pinRejects })
	b.Reg.GaugeFunc("globalfp_ref_pins", func() int64 { return a.refPins })
	b.Reg.GaugeFunc("globalfp_ref_unpins", func() int64 { return a.refUnpins })
	b.Reg.GaugeFunc("globalfp_recalls_sent", func() int64 { return a.recallsSent })
	b.Reg.GaugeFunc("globalfp_recalls_done", func() int64 { return a.recallsDone })
	b.Reg.GaugeFunc("globalfp_recall_implicit_grants", func() int64 { return a.implicitGrants })
	b.Reg.GaugeFunc("globalfp_fold_backlog", func() int64 { return int64(len(a.foldQ)) })
	return a
}

func (a *Agent) hintedTest(pba alloc.PBA) bool {
	return a.hinted[pba>>6]&(1<<(uint(pba)&63)) != 0
}
func (a *Agent) hintedSet(pba alloc.PBA)   { a.hinted[pba>>6] |= 1 << (uint(pba) & 63) }
func (a *Agent) hintedClear(pba alloc.PBA) { a.hinted[pba>>6] &^= 1 << (uint(pba) & 63) }

// Advertise implements engine.Tier: the write path publishes a
// request's ads through the agent, so the shard number and its epoch
// ride along and the grouping scratch is the agent's.
func (a *Agent) Advertise(ads []engine.Ad) {
	a.t.publish(a.shard, a.t.Epoch(a.shard), ads, &a.pub)
}

// RemoteRef implements engine.Tier: it reports this shard's 0↔1
// reference transitions on a remote canonical to its owner (the ref-pin
// half of the pin invariant). Fired by Base.SetRemoteRef and FreeBlocks.
func (a *Agent) RemoteRef(c alloc.PBA, up bool) {
	owner, _ := alloc.RemoteParts(c)
	kind := msgRefDown
	if up {
		kind = msgRefUp
	}
	a.send(owner, message{kind: kind, canon: c})
}

// Parole implements engine.Tier: a hinted canonical whose last local
// reference disappeared is queued; recall decides later (the block may
// be re-referenced before the parole budget reaches it: a no-op then).
func (a *Agent) Parole(pba alloc.PBA) {
	if a.hintedTest(pba) {
		a.paroleQ = append(a.paroleQ, pba)
	}
}

// Hint implements engine.Tier: the write path's lookup stage asks, on a
// hot-index miss, whether a peer holds the content.
func (a *Agent) Hint(fp chunk.Fingerprint) (alloc.PBA, bool) { return a.hints.get(fp) }

// OwnerDown implements engine.Tier (an atomic read; safe mid-request).
func (a *Agent) OwnerDown(owner int) bool { return a.t.Down(owner) }

// Tick implements engine.BackgroundTask. Control-message processing is
// deliberately unconditional: it is pure bookkeeping (no disk I/O), and
// deferring it to idle windows would delay hint installation past the
// very writes the hints exist to deduplicate. Fold I/O and recalls run
// one budgeted step per foldStepInterval, and only in (near-)idle disk
// windows — the scanner's pacing discipline; the wrapped scanner gets
// the tail of the tick.
func (a *Agent) Tick(now sim.Time) {
	a.drainMsgs(now, msgsPerTick)
	if now >= a.nextFold {
		if a.b.Array.Backlog(now) > foldMaxBacklog {
			a.nextFold = now.Add(foldStepInterval / 4)
		} else {
			a.nextFold = now.Add(foldStepInterval)
			a.applyFolds(now, foldsPerTick)
			a.processParole(paroleBudget)
		}
	}
	a.inner.Tick(now)
}

// Flush implements engine.BackgroundTask: converge the wrapped scanner,
// then drain every queued message, fold, and parole to quiescence.
func (a *Agent) Flush(now sim.Time) {
	a.inner.Flush(now)
	a.DrainAll(now)
}

// RecoverReset implements engine.BackgroundTask: all agent state is
// volatile DRAM bookkeeping — hints, queued folds, paroles, in-flight
// recalls, and the hinted bitset die with the crash. Post-recovery pins
// are rebuilt by the serving layer as ref pins only; the hinted pins are
// simply gone, consistent with their table entries (tier.Reset).
func (a *Agent) RecoverReset() {
	a.hints.clear()
	a.foldQ = a.foldQ[:0]
	a.paroleQ = a.paroleQ[:0]
	for k := range a.recalling {
		delete(a.recalling, k)
	}
	a.hinted = make([]uint64, (a.b.DataBlocks()+63)/64)
	a.inner.RecoverReset()
}

// drainAllChunk is how many control messages DrainAll lifts out of the
// inbox at a time: a flood leaves millions queued at Close, and copying
// them all out before handling the first doubles their memory.
const drainAllChunk = 4096

// DrainAll processes everything currently queued — messages, folds,
// paroles — without budgets or idle gates, repeating until nothing
// moves. Returns the number of items processed; settlement loops over
// all shards until a full round moves nothing.
func (a *Agent) DrainAll(now sim.Time) int {
	total := 0
	for {
		n := a.drainMsgs(now, drainAllChunk)
		n += a.applyFolds(now, -1)
		n += a.processParole(-1)
		total += n
		if n == 0 {
			return total
		}
	}
}

// adRun is the longest batch ReAdvertise publishes at once: about 32
// ads per partition lock hold, for 10 KiB of scratch.
const adRun = 256

// ReAdvertise republishes every distinct live, referenced local block —
// the settlement pass that retries fold candidates an injected fault
// aborted or whose hint binding a later grant overwrote (fresh ads
// always re-grant) — in batches of adRun.
func (a *Agent) ReAdvertise() {
	visited := make([]uint64, len(a.hinted))
	ads := make([]engine.Ad, 0, adRun)
	a.b.Map.Each(func(_ uint64, pba alloc.PBA, _ bool) bool {
		if alloc.IsRemote(pba) {
			return true
		}
		w, bit := pba>>6, uint64(1)<<(uint(pba)&63)
		if visited[w]&bit != 0 {
			return true
		}
		visited[w] |= bit
		id, ok := a.b.Store.Read(pba)
		if !ok {
			return true
		}
		if ads = append(ads, engine.Ad{FP: id.Fingerprint(), PBA: pba, Fresh: true}); len(ads) == adRun {
			a.Advertise(ads)
			ads = ads[:0]
		}
		return true
	})
	a.Advertise(ads)
}

// drainMsgs handles up to budget queued control messages and returns the
// number handled. What the handlers send is staged per destination and
// delivered in runs (see send); every run is out before drainMsgs
// returns.
func (a *Agent) drainMsgs(now sim.Time, budget int) int {
	a.msgBuf = a.t.inbox[a.shard].take(a.msgBuf[:0], budget)
	a.warm(a.msgBuf)
	a.staging = true
	for _, m := range a.msgBuf {
		a.handle(now, m)
	}
	a.staging = false
	for to := range a.out {
		a.flush(to)
	}
	return len(a.msgBuf)
}

// warmRun is how many fingerprints one directory or partition-table warm
// takes: about as many cache misses as a core keeps in flight.
const warmRun = 16

// warm loads, and changes nothing, what handling msgs will read first:
// every grant's hint-table bucket and, for a grant naming no duplicate,
// the directory bucket handleGrant's IndexPeek reads, so the drain's
// cache misses overlap. It writes nothing a handler reads, so its order
// against the revokes and frees handled after it cannot matter.
func (a *Agent) warm(msgs []message) {
	var fps [warmRun]chunk.Fingerprint
	n := 0
	for k := range msgs {
		m := &msgs[k]
		if m.kind != msgGrant {
			continue
		}
		a.hints.warm(&m.fp)
		if !m.hasDup {
			fps[n] = m.fp
			if n++; n == warmRun {
				a.b.IC.Warm(fps[:])
				n = 0
			}
		}
	}
	a.b.IC.Warm(fps[:n])
}

// outboxRun is the longest run send stages before delivering it: it
// bounds an agent's outboxes at shards × 16 KiB however many messages a
// settlement drain handles at once.
const outboxRun = 256

// send is the one way the agent sends: every message it originates,
// stamped with its shard and current epoch. Outside drainMsgs the
// message goes straight to the destination's inbox. Inside, where a
// drain of pin requests emits seven grants apiece, it joins the
// destination's staged run, delivered under one lock hold when the run
// reaches outboxRun or the drain ends.
//
// Per-(sender, receiver) FIFO — grant before revoke, RefUp before
// RevokeAck — survives because a run keeps send order, runs toward one
// destination are delivered in the order they filled, and nothing
// staged outlives the drainMsgs call (so the shard-lock hold) that
// staged it: a direct send always finds the outboxes empty, and
// Tier.Backlog misses nothing between lock holds. A shard cannot go
// down while a peer holds its own shard lock (Server.CrashShard takes
// them all), so checking the down flag once per run drops, and counts,
// exactly the messages checking it per message would.
func (a *Agent) send(to int, m message) {
	m.from, m.epoch = a.shard, a.t.Epoch(a.shard)
	if !a.staging {
		a.t.send(to, m)
		return
	}
	a.out[to] = append(a.out[to], m)
	if len(a.out[to]) == outboxRun {
		a.flush(to)
	}
}

// flush delivers the run staged toward one shard.
func (a *Agent) flush(to int) {
	if len(a.out[to]) > 0 {
		a.t.sendAll(to, a.out[to])
		a.out[to] = a.out[to][:0]
	}
}

func (a *Agent) handle(now sim.Time, m message) {
	// Fence: drop anything stamped with an epoch that is no longer the
	// sender's current one — a message from the sender's previous life
	// (a grant issued before its crash, a pin request for an ad it
	// published before dying). RefUp/RefDown are exempt: they mirror the
	// sender's journaled (crash-durable) reference transitions, which
	// the crash does not undo — fencing them would desynchronize this
	// shard's pin counts from references that survive the sender's
	// recovery verbatim. (Every transition is journaled and sent under
	// one lock hold, so a queued ref message is always backed by a
	// durable state change.)
	if m.epoch != a.t.Epoch(m.from) && m.kind != msgRefUp && m.kind != msgRefDown {
		a.staleDropped++
		a.t.staleDropped.Add(1)
		return
	}
	switch m.kind {
	case msgPinReq:
		a.handlePinReq(m)
	case msgGrant:
		a.handleGrant(m)
	case msgRefUp:
		_, local := alloc.RemoteParts(m.canon)
		a.b.Map.Pin(local)
		a.refPins++
	case msgRefDown:
		_, local := alloc.RemoteParts(m.canon)
		a.refUnpins++
		if a.b.Map.Unpin(local) {
			a.freeLocal(local)
		}
	case msgRevoke:
		// Delete the hint binding (and any cached read of the remote
		// block) so no new references form, then ack. Existing remote
		// mappings stay valid: this shard's ref pin holds the block.
		a.hints.remove(m.fp, m.canon)
		a.b.IC.PurgePBA(m.canon)
		owner, _ := alloc.RemoteParts(m.canon)
		a.send(owner, message{kind: msgRevokeAck, canon: m.canon})
	case msgRevokeAck:
		a.handleRevokeAck(m)
	case msgPeerDown:
		a.handlePeerDown(m)
	}
}

// handlePinReq is the owner side of a grant: validate the canonical
// against live local state (the advertisement may be arbitrarily
// stale), take the one hinted pin, and grant every beneficiary.
func (a *Agent) handlePinReq(m message) {
	_, local := alloc.RemoteParts(m.canon)
	if !a.validCanonical(local, m.fp) {
		a.pinRejects++
		a.t.Fix(m.fp, m.canon)
		return
	}
	if !a.hintedTest(local) {
		a.hintedSet(local)
		a.b.Map.Pin(local)
		a.pinsGranted++
	}
	for s := 0; s < a.t.shards; s++ {
		if m.bene&(uint64(1)<<uint(s)) == 0 {
			continue
		}
		a.send(s, message{kind: msgGrant, fp: m.fp, canon: m.canon, dup: m.dup, hasDup: m.hasDup})
	}
}

// validCanonical checks that the local block still is what the
// advertisement claimed: live, holding content with the advertised
// fingerprint, still referenced (or already pinned), and not mid-recall.
func (a *Agent) validCanonical(local alloc.PBA, fp chunk.Fingerprint) bool {
	id, ok := a.b.Store.Read(local)
	if !ok {
		return false
	}
	if id.Fingerprint() != fp {
		return false
	}
	if a.b.Map.RefCount(local) == 0 && !a.b.Map.Pinned(local) {
		return false
	}
	if _, mid := a.recalling[local]; mid {
		return false
	}
	return true
}

// handleGrant is the beneficiary side: install the fp → canonical hint
// into the hint table and queue a fold of any local duplicate — the
// targeted copy a duplicate-hit ad named, or whatever local block the
// hot index binds this fingerprint to.
func (a *Agent) handleGrant(m message) {
	dup, hasDup := m.dup, m.hasDup
	if !hasDup {
		if e, ok := a.b.IC.IndexPeek(m.fp); ok {
			dup, hasDup = e.PBA, true
		}
	}
	a.hints.put(m.fp, m.canon)
	a.hintsInstalled++
	if hasDup {
		a.foldQ = append(a.foldQ, foldReq{dup: dup, fp: m.fp, canon: m.canon})
	}
}

// handleRevokeAck clears the sender's bit in a revoke round; the last
// ack releases the hinted pin. A RefUp that raced the recall has already
// been processed — same-sender FIFO — so its pin survives the release.
// Bit-clearing (rather than a countdown) makes a duplicate ack harmless.
func (a *Agent) handleRevokeAck(m message) {
	_, local := alloc.RemoteParts(m.canon)
	if st, ok := a.recalling[local]; ok {
		st.waiting &^= uint64(1) << uint(m.from)
		a.settleRecall(local, st)
	}
}

// handlePeerDown takes a crash notice as the dead peer's ack (an
// implicit grant) in every round started before the crash: its inbox,
// revoke included, was discarded, and it holds no hint. The notice was
// queued behind everything the peer sent, so a RefUp it sent before
// dying has already pinned the block the round may now release. A round
// started after the crash — the peer rejoined and was revoked again —
// waits for a real ack.
func (a *Agent) handlePeerDown(m message) {
	bit := uint64(1) << uint(m.from)
	for local, st := range a.recalling {
		if st.since < m.seq && st.waiting&bit != 0 {
			a.implicitGrants++
			st.waiting &^= bit
			a.settleRecall(local, st)
		}
	}
}

// settleRecall stores a revoke round while acks are outstanding and
// completes it once none is: the hinted pin is released, freeing the
// block unless ref pins (or a revived local reference) still hold it.
func (a *Agent) settleRecall(local alloc.PBA, st recallState) {
	if st.waiting != 0 {
		a.recalling[local] = st
		return
	}
	delete(a.recalling, local)
	a.recallsDone++
	if a.hintedTest(local) {
		a.hintedClear(local)
		if a.b.Map.Unpin(local) {
			a.freeLocal(local)
		}
	}
}

// applyFolds applies up to budget queued remap candidates (all when
// budget < 0) and returns the number consumed. Order is irrelevant —
// candidates touch disjoint duplicates — so the queue drains from the
// tail.
func (a *Agent) applyFolds(now sim.Time, budget int) int {
	n := 0
	for (budget < 0 || n < budget) && len(a.foldQ) > 0 {
		f := a.foldQ[len(a.foldQ)-1]
		a.foldQ = a.foldQ[:len(a.foldQ)-1]
		n++
		// The hint must still be the table's live binding: a revoke or
		// overwrite since enqueue invalidates the candidate.
		if c, ok := a.hints.peek(f.fp); !ok || c != f.canon {
			a.remapsRejected++
			continue
		}
		if remapped, reclaimed, ok := a.core.FoldRemote(now, f.dup, f.fp, f.canon); ok {
			a.remapsApplied++
			a.reclaimed += int64(reclaimed)
			_ = remapped
		} else {
			a.remapsRejected++
		}
	}
	return n
}

// processParole starts recalls for up to budget paroled canonicals (all
// when budget < 0) and returns the queue entries consumed. Entries are
// re-validated: a block re-referenced, already recalled, or freed since
// parole is skipped. Each round records the tier's crash count, which
// cannot move under it: recalls run under the shard lock and
// Server.CrashShard holds every shard lock.
func (a *Agent) processParole(budget int) int {
	n := 0
	for (budget < 0 || n < budget) && len(a.paroleQ) > 0 {
		pba := a.paroleQ[len(a.paroleQ)-1]
		a.paroleQ = a.paroleQ[:len(a.paroleQ)-1]
		n++
		if !a.hintedTest(pba) {
			continue
		}
		if _, mid := a.recalling[pba]; mid {
			continue
		}
		if a.b.Map.RefCount(pba) > 0 {
			continue
		}
		id, ok := a.b.Store.Read(pba)
		if !ok {
			continue
		}
		revoke := message{kind: msgRevoke, fp: id.Fingerprint(), canon: alloc.MakeRemote(a.shard, pba)}
		waiting := a.t.Recall(revoke.fp, a.shard, pba)
		for s := 0; s < a.t.shards; s++ {
			if waiting&(uint64(1)<<uint(s)) != 0 {
				a.send(s, revoke)
			}
		}
		a.recallsSent++
		// with every peer down at send time the round completes here
		a.settleRecall(pba, recallState{waiting: waiting, since: a.t.crashSweeps.Load()})
	}
	return n
}

func (a *Agent) freeLocal(pba alloc.PBA) {
	a.freeBuf[0] = pba
	a.b.FreeBlocks(a.freeBuf[:])
}
