// Package globalfp implements the global fingerprint tier: a
// fingerprint-sharded second index that runs beside the LBA-sharded
// serving layer and recovers the cross-shard deduplication the
// LBA split costs (writes removed fell 58.2% → 48.2% at 8 shards
// because each shard's hot index only sees its slice of the content
// stream — EXPERIMENTS.md, ROADMAP open item 1).
//
// The design keeps the inline write path shard-local and lock-free:
//
//   - Shards publish (fingerprint, shard, PBA) advertisements a
//     request at a time, and the whole batch lands on the fingerprint
//     partitions' probe.Map tables inside the publishing call: grouped
//     by partition in publishing order, one lock hold per partition
//     touched, its pin requests delivered before that lock is released.
//     No ad is queued, so none is dropped. The first advertisement of
//     a fingerprint registers its block as the canonical copy and asks
//     the owning shard to grant index hints to every other shard; a
//     later advertisement from a different shard is a detected
//     cross-shard duplicate and emits a targeted remap candidate for
//     the advertiser's copy.
//   - Each shard's background actor (Agent, wrapping the bgdedup
//     scanner) consumes grants and candidates in virtual time from the
//     engine's per-request Tick: a grant puts its fp → remote-canonical
//     binding into the agent's bounded hint table, which the write
//     path's lookup stage consults on a hot-index miss (so the shard's
//     next write of that content deduplicates inline against the peer's
//     copy), and candidates fold existing local duplicates through the
//     bgdedup revalidated-merge path (re-read, re-hash, journaled
//     Map.Set, refcount handoff) — so a stale advertisement is harmless
//     by construction. Hints never enter the iCache: its index side
//     holds the shard's own fingerprints only, and its Swap Module sees
//     the shard's own locality.
//
// Correctness hangs on one invariant: a remote-encoded mapping may
// only reference a canonical block its owner holds pinned, and the
// owner never frees or mutates a pinned block. Grants are issued by
// the owner after pinning (the "hinted" pin); every shard reports its
// 0↔1 local-reference transitions (RefUp/RefDown → one ref pin per
// referencing shard); and a canonical whose local references vanished
// while pinned goes on parole, triggering a recall: the tier drops its
// table entry, the owner sends every live peer a revoke, every shard
// deletes the hint and acks, and the owner releases the hinted pin once
// all acks are in — freeing the block unless ref pins remain.
//
// In-process delivery is one FIFO per receiving shard, and what the
// protocol needs of it is per-(sender, receiver) order: a grant before
// the revoke that recalls it, a RefUp before the RevokeAck that lets the
// owner count references. Messages move in batches without losing it.
// Everything an agent sends goes through Agent.send; inside a message
// drain — where one pin request emits up to seven grants — the send is
// staged per destination and each destination's run is delivered under
// one inbox lock hold, in order, before the drain returns, so nothing
// staged outlives the shard-lock hold that staged it and a later direct
// send can never overtake it. Settlement at Close runs every shard's
// agent at once, in rounds with a barrier between them (the serving
// layer's settleGlobalFP), under the same shard → partition → inbox
// lock order the agents' ticks use while serving.
//
// Shards are individual failure domains. Every shard carries a
// monotonic epoch, bumped when the shard crashes; every control
// message and advertisement is stamped with its sender's epoch, and
// receivers drop (and count) anything stamped with an epoch that is no
// longer the sender's current one — the fencing that makes messages
// from a shard's previous life harmless. A crash also queues a notice
// to every live peer, behind everything the dead shard sent; a recall
// waiting on the dead shard treats the notice as its ack (an implicit
// grant): the dead peer cannot hold a hint, and any remote reference it
// journaled is re-audited by the RecoverLoad/RecoverFinish
// remote-reference scan when it rejoins. A crash drops only the dead
// shard's advertisements and pins from the tier tables, and the hints
// naming its canonicals from the survivors' hint tables (partial
// reset); the survivors' entries stay live. See DESIGN.md §12.
//
// The tier itself is volatile: on CrashAndRecover it is rebuilt from
// the shard indexes — remote mappings recover through the journaled
// Map.Set path, the serving layer re-pins canonicals from the union of
// recovered maps, and the fingerprint tables are simply re-learned
// from fresh advertisements. No new journal exists.
package globalfp

import (
	"sync"
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// The tier's sizes. No run has ever needed a second value of any of
// them, so they are constants; DESIGN.md §12 "Architecture" gives the
// measurements behind each.
const (
	// partitions is the number of fingerprint partitions, each with
	// its own table and lock.
	partitions = 8
	// foldsPerTick bounds the remap candidates a shard agent applies
	// per paced fold step; fold I/O beyond the budget waits for the
	// next step or an idle window. Deliberately small: every fold
	// applied while the shard is still serving converts later reads of
	// that block into flat-latency remote fetches, so eager folding
	// trades read latency for capacity that settlement would reclaim
	// for free after the serving window anyway.
	foldsPerTick = 4
	// msgsPerTick bounds the control messages (grants, pin traffic,
	// revokes) a shard agent processes per engine tick. Control work
	// is pure bookkeeping — no disk I/O — so it is never idle-gated:
	// hints must land while the system is busy or the inline recovery
	// never happens.
	msgsPerTick = 256
)

// Params is empty: the tier has no options. The type stays because
// NewTier's signature is among what bench/ pins (DESIGN.md §3).
type Params struct{}

// msgKind discriminates the shard-to-shard control messages.
type msgKind uint8

const (
	// msgPinReq: tier → owner. Pin the canonical and grant hints to
	// the beneficiary shards; dup names the advertiser's duplicate
	// copy for a targeted fold (hasDup).
	msgPinReq msgKind = iota
	// msgGrant: owner → beneficiary. The canonical is pinned; install
	// the fp → canonical hint and fold any local duplicate.
	msgGrant
	// msgRefUp: beneficiary → owner. First local mapping referencing
	// the canonical appeared; add a ref pin.
	msgRefUp
	// msgRefDown: beneficiary → owner. Last local mapping vanished;
	// drop the ref pin.
	msgRefDown
	// msgRevoke: owner → every other live shard. The owner is
	// recalling the canonical; purge the hint and ack.
	msgRevoke
	// msgRevokeAck: shard → owner. Revoke processed.
	msgRevokeAck
	// msgPeerDown: tier → every other live shard, from CrashShard.
	// Shard from crashed as crash number seq; recall rounds started
	// before that stop waiting for its ack.
	msgPeerDown
)

// message is one entry in a shard's control inbox. Grants, pin
// traffic, revokes, acks, and crash notices ride reliable (unbounded)
// queues: none can be dropped without leaking pins. Every message
// carries its sender's shard and epoch; receivers drop messages whose
// epoch is no longer the sender's current one (fencing). Tier-origin
// messages are stamped with the epoch of the shard they concern: a
// PinReq with its advertiser's, a PeerDown with the dead shard's new
// one, so a later crash of that shard fences an earlier notice that its
// own notice covers.
type message struct {
	kind   msgKind
	hasDup bool
	fp     chunk.Fingerprint
	canon  alloc.PBA // remote-encoded owner+pba
	dup    alloc.PBA // msgPinReq/msgGrant: advertiser's local duplicate
	bene   uint64    // msgPinReq: beneficiary shard bitmask
	from   int       // sending shard (ad origin for msgPinReq, the dead shard for msgPeerDown)
	epoch  uint32    // sender's epoch at send time
	seq    uint32    // msgPeerDown: the tier's crash count after this crash
}

// inbox is a shard's reliable control queue: a mutex-guarded list of
// fixed-size chunks filled in real send order (the single-process FIFO
// the protocol orderings rely on). Growing it links one more chunk and
// never re-copies the backlog; draining costs the messages taken,
// whatever is queued behind them, and keeps each emptied chunk for the
// next fill. So an inbox holds chunks up to its own peak backlog, a
// steady tick allocates nothing, and a second flood re-uses the chunks
// of the first instead of allocating its own.
type inbox struct {
	mu         sync.Mutex
	head, tail *inboxChunk // queued: head.msgs[r:] … tail.msgs[:w]
	r, w       int
	n          int         // queued messages
	peak       int         // high-water mark of n
	spare      *inboxChunk // emptied chunks kept for reuse
	chunks     int         // chunks held, queued and spare
}

const inboxChunkLen = 256 // messages per chunk: 16 KiB

type inboxChunk struct {
	msgs [inboxChunkLen]message
	next *inboxChunk
}

func (in *inbox) push(m message) { in.pushAll([]message{m}) }

// pushAll queues a run of messages, in order, under one lock hold.
func (in *inbox) pushAll(ms []message) {
	in.mu.Lock()
	in.n += len(ms)
	in.peak = max(in.peak, in.n)
	for len(ms) > 0 {
		if in.tail == nil || in.w == inboxChunkLen {
			in.link()
		}
		k := copy(in.tail.msgs[in.w:], ms)
		in.w += k
		ms = ms[k:]
	}
	in.mu.Unlock()
}

// link appends an empty chunk, a spare one when there is one.
func (in *inbox) link() {
	c := in.spare
	if c != nil {
		in.spare, c.next = c.next, nil
	} else {
		c = new(inboxChunk)
		in.chunks++
	}
	if in.tail == nil {
		in.head, in.r = c, 0
	} else {
		in.tail.next = c
	}
	in.tail, in.w = c, 0
}

// unlink retires the head chunk, every message of which was taken, to
// the spares.
func (in *inbox) unlink() {
	c := in.head
	in.head, in.r = c.next, 0
	if in.head == nil {
		in.tail, in.w = nil, 0
	}
	c.next, in.spare = in.spare, c
}

// take moves up to n queued messages into dst.
func (in *inbox) take(dst []message, n int) []message {
	in.mu.Lock()
	k := min(n, in.n)
	in.n -= k
	for k > 0 {
		end := inboxChunkLen
		if in.head == in.tail {
			end = in.w
		}
		run := min(k, end-in.r)
		dst = append(dst, in.head.msgs[in.r:in.r+run]...)
		in.r += run
		k -= run
		if in.r == inboxChunkLen || in.n == 0 {
			in.unlink()
		}
	}
	in.mu.Unlock()
	return dst
}

func (in *inbox) len() int {
	in.mu.Lock()
	n := in.n
	in.mu.Unlock()
	return n
}

// peakLen reports the most messages the inbox ever held at once.
func (in *inbox) peakLen() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int64(in.peak)
}

// bytes reports the memory the inbox holds, queued and spare chunks.
func (in *inbox) bytes() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int64(in.chunks) * int64(unsafe.Sizeof(inboxChunk{}))
}

func (in *inbox) clear() {
	in.mu.Lock()
	for in.head != nil {
		in.unlink()
	}
	in.n = 0
	in.mu.Unlock()
}
