package globalfp

import (
	"math/bits"

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

// Agent is a shard's endpoint of the global fingerprint tier: an
// engine.BackgroundTask wrapping the shard's bgdedup scanner (the tier
// requires background dedup — candidates apply through its revalidated
// merge path). It publishes the shard's advertisements, answers the
// write path's lookup-stage Hint probes from the tier's hint table,
// drains the shard's control inbox every tick (never idle-gated: hints
// must land under load), installing a hint for every canonical of its
// own it pins, applies budgeted remap folds in idle windows, and runs
// the owner-side pin/parole/recall protocol: recalled pins queue for a
// barrier round, at most one open at a time, that each live peer acks.
//
// All agent state is guarded by the shard lock: every entry point —
// Tick/Flush and the engine.Tier calls via the engine,
// settlement via the server — runs with the shard's mutex held. Tier
// calls made from here (publish, hint, install, Fix, Recall) take
// partition locks, never shard locks, so the shard → partition lock
// order is acyclic.
type Agent struct {
	b     *engine.Base
	t     *Tier
	shard int
	inner *bgdedup.Scanner
	core  *bgdedup.Core

	foldQ    []foldReq
	nextFold sim.Time
	paroleQ  []alloc.PBA
	hinted   []uint64   // bitset: local blocks holding the hinted pin
	msgBuf   []message  // inbox drain scratch
	pub      pubScratch // publish's grouping scratch
	freeBuf  [1]alloc.PBA

	// The recall rounds. recallQ holds the pins recalled since the open
	// round opened; round holds the pins that round releases (empty:
	// no round is open); waiting is the peers whose ack it still needs,
	// and since the tier's crash count when it opened — a crash notice
	// numbered above it stands in for the dead peer's ack.
	recallQ []alloc.PBA
	round   []alloc.PBA
	waiting uint64
	since   uint32

	remapsApplied  int64
	remapsRejected int64
	reclaimed      int64
	pinsGranted    int64
	pinRejects     int64
	refPins        int64
	refUnpins      int64
	recallsSent    int64 // pins recalled
	recallsDone    int64 // recalled pins released
	recallsDropped int64 // recalled pins a crash dropped unreleased
	rounds         int64
	implicitGrants int64 // rounds a crash notice acked for a dead peer
	staleDropped   int64
	handled        [msgKinds]int64 // messages drained, by kind
}

// New builds the agent on a shard engine's substrate, interposes it as
// the engine's background task and tier seat, and registers its gauges.
// The shard's scanner must already be attached (the serving layer checks):
// the agent wraps it and folds through its Core, so folds show in the
// bgdedup gauges too. The first agent seated sizes the tier's hint
// table from its hot index (Tier.sizeHints).
func New(b *engine.Base, t *Tier, shard int) *Agent {
	inner := b.Background.(*bgdedup.Scanner)
	a := &Agent{
		b: b, t: t, shard: shard,
		inner:  inner,
		core:   inner.Core(),
		hinted: make([]uint64, (b.DataBlocks()+63)/64),
	}
	b.Background = a
	b.SetTier(a)
	t.register(shard, a)

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
	b.Reg.GaugeFunc("globalfp_recalls_dropped", func() int64 { return a.recallsDropped })
	b.Reg.GaugeFunc("globalfp_recall_rounds", func() int64 { return a.rounds })
	b.Reg.GaugeFunc("globalfp_recall_implicit_grants", func() int64 { return a.implicitGrants })
	for k := range a.handled {
		b.Reg.GaugeFunc("globalfp_msgs_"+msgNames[k], func() int64 { return a.handled[k] })
	}
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

// Hint implements engine.Tier: the write path's lookup stage asks, for
// the chunks its hot index missed, whether a peer holds the content.
func (a *Agent) Hint(w *engine.WriteOp) { a.t.hint(a.shard, w) }

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
// volatile DRAM bookkeeping — queued folds, paroles, queued recalls,
// the open round and the hinted bitset die with the crash (the
// recalled pins among them count as dropped, so sent = done + dropped
// once the rounds settle).
// Post-recovery pins are rebuilt by the serving layer as ref pins only;
// the hinted pins are simply gone, and so are the hint bindings naming
// them, which the tier drops while every shard lock is held
// (Tier.CrashShard before a shard's recovery, Tier.Reset right after a
// whole node's).
func (a *Agent) RecoverReset() {
	a.foldQ = a.foldQ[:0]
	a.paroleQ = a.paroleQ[:0]
	a.recallsDropped += int64(len(a.recallQ) + len(a.round))
	a.recallQ, a.round, a.waiting = a.recallQ[:0], a.round[:0], 0
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
// aborted or whose hint binding a later install overwrote (fresh ads
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
// number handled.
func (a *Agent) drainMsgs(now sim.Time, budget int) int {
	a.msgBuf = a.t.inbox[a.shard].take(a.msgBuf[:0], budget)
	for _, m := range a.msgBuf {
		a.handle(now, m)
	}
	return len(a.msgBuf)
}

// send is the one way the agent sends: every message it originates,
// stamped with its shard and current epoch, goes straight into the
// destination's inbox. Every call runs under the agent's shard lock, so
// per-(sender, receiver) FIFO is program order — a grant before the
// barrier of a round that may free its canonical, a RefUp before the
// ack that lets a round release the block it references.
func (a *Agent) send(to int, m message) {
	m.from, m.epoch = int32(a.shard), a.t.Epoch(a.shard)
	a.t.send(to, m)
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
	a.handled[m.kind]++
	if m.epoch != a.t.Epoch(int(m.from)) && m.kind != msgRefUp && m.kind != msgRefDown {
		a.staleDropped++
		a.t.staleDropped.Add(1)
		return
	}
	switch m.kind {
	case msgPinReq:
		a.handlePinReq(m)
	case msgGrant: // a detected duplicate's fold
		a.foldQ = append(a.foldQ, foldReq{dup: m.dup, fp: m.fp, canon: m.canon})
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
	case msgBarrier:
		// Everything this shard sent the owner before now — a RefUp
		// formed from a binding the owner's recalls since deleted —
		// is queued ahead of the ack.
		a.send(int(m.from), message{kind: msgAck})
	case msgAck:
		a.waiting &^= uint64(1) << uint(m.from)
		a.settleRound()
	case msgPeerDown:
		// The dead peer's inbox, barrier included, was discarded, and
		// the notice was queued behind everything it sent: it acks for
		// the peer a round opened before the crash. A round opened
		// after it — the peer rejoined — waits for a real ack.
		if bit := uint64(1) << uint(m.from); a.since < m.seq && a.waiting&bit != 0 {
			a.implicitGrants++
			a.waiting &^= bit
			a.settleRound()
		}
	}
}

// handlePinReq is the owner side of a grant: validate the canonical
// against live local state (the advertisement may be arbitrarily
// stale), take the one hinted pin, install the hint every peer's lookup
// reads, and grant a detected duplicate's shard the fold of its copy.
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
	a.t.install(m.fp, m.canon)
	if from := int(m.from); from != a.shard {
		a.send(from, message{kind: msgGrant, fp: m.fp, canon: m.canon, dup: m.dup})
	}
}

// validCanonical checks that the local block still is what the
// advertisement claimed: live, holding content with the advertised
// fingerprint, and referenced or already hinted. A block that is
// neither — recalled and unreferenced, whatever pins still hold it —
// would never be paroled again, so the hinted pin would keep it for
// good.
func (a *Agent) validCanonical(local alloc.PBA, fp chunk.Fingerprint) bool {
	id, ok := a.b.Store.Read(local)
	if !ok || id.Fingerprint() != fp {
		return false
	}
	return a.b.Map.RefCount(local) > 0 || a.hintedTest(local)
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
		// The hint must still be the table's live binding: a recall or
		// overwrite since enqueue invalidates the candidate.
		if c, ok := a.t.bound(f.fp); !ok || c != f.canon {
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

// processParole recalls up to budget paroled canonicals (all when
// budget < 0) and returns the queue entries consumed. Entries are
// re-validated: a block re-referenced, already recalled, or freed since
// parole is skipped. A recall drops the block's table entry and hint
// binding and its hinted bit, and queues its pin for the next barrier
// round; a PinReq that finds the block referenced again meanwhile pins
// it anew, like any other.
func (a *Agent) processParole(budget int) int {
	n := 0
	for (budget < 0 || n < budget) && len(a.paroleQ) > 0 {
		pba := a.paroleQ[len(a.paroleQ)-1]
		a.paroleQ = a.paroleQ[:len(a.paroleQ)-1]
		n++
		if !a.hintedTest(pba) || a.b.Map.RefCount(pba) > 0 {
			continue
		}
		id, ok := a.b.Store.Read(pba)
		if !ok {
			continue
		}
		a.t.Recall(id.Fingerprint(), a.shard, pba)
		a.hintedClear(pba)
		a.recallQ = append(a.recallQ, pba)
		a.recallsSent++
	}
	a.settleRound()
	return n
}

// settleRound moves the recall rounds on as far as they go: once no ack
// is outstanding it releases the open round's pins, freeing each block
// no ref pin (or revived local reference) still holds, then opens the
// next round over the pins queued meanwhile, sending each live peer a
// barrier. A round opened with no live peer completes at once. Its
// crash count cannot move under it: rounds open under the shard lock,
// and Server.CrashShard holds every shard lock.
func (a *Agent) settleRound() {
	for a.waiting == 0 {
		for _, pba := range a.round {
			if a.b.Map.Unpin(pba) {
				a.freeLocal(pba)
			}
		}
		a.recallsDone += int64(len(a.round))
		a.round = a.round[:0]
		if len(a.recallQ) == 0 {
			return
		}
		a.round, a.recallQ = a.recallQ, a.round
		a.waiting, a.since = a.t.peers(a.shard), a.t.crashSweeps.Load()
		a.rounds++
		for w := a.waiting; w != 0; w &= w - 1 {
			a.send(bits.TrailingZeros64(w), message{kind: msgBarrier})
		}
	}
}

func (a *Agent) freeLocal(pba alloc.PBA) {
	a.freeBuf[0] = pba
	a.b.FreeBlocks(a.freeBuf[:])
}
