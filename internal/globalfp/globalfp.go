// Package globalfp implements the global fingerprint tier: a
// fingerprint-partitioned second index beside the LBA-sharded serving
// layer that recovers the cross-shard deduplication the LBA split costs
// (each shard's hot index sees only its slice of the content stream).
// DESIGN.md §12 has the protocol, its orderings and its recovery model.
//
// The inline write path stays shard-local. A request's (fingerprint,
// shard, PBA) advertisements land on the partitions' tables inside the
// publishing call; a first sighting registers the canonical and asks
// its owner to pin it, and a later sighting from another shard asks the
// owner for a targeted fold of that shard's copy. Each shard's Agent
// (wrapping its bgdedup scanner) handles that traffic from the engine's
// Tick: the owner validates and pins the canonical, then installs its
// fp → canonical binding once in the tier's bounded hint table, which
// every shard's lookup stage reads on a hot-index miss; a detected
// duplicate's shard folds its copy through the bgdedup revalidated-merge
// path. Hints never enter the iCache.
//
// Correctness hangs on one invariant: a remote-encoded mapping
// references only a canonical its owner holds pinned, and the owner
// never frees or mutates a pinned block. Hints are installed and grants
// issued after the owner's "hinted" pin; each shard's 0↔1 reference
// transitions become ref pins (RefUp/RefDown); a canonical whose local
// references vanished is recalled — its table entry and hint dropped,
// its hinted pin queued — and an owner keeps at most one barrier round
// open: a payload-free barrier to every live peer, whose ack follows
// every RefUp the peer sent before it, and on the last ack the round
// releases every pin queued before it opened. Delivery is one FIFO per
// receiving shard, and every send of an Agent is one Tier.send made
// under its shard lock, so per-(sender, receiver) order is send order.
// A peer drops its cached reads of a remote block with its last
// reference to it (Base.FreeBlocks).
// Shards are failure domains: epochs fence a crashed shard's old
// messages, a crash notice stands in for its acks, and a crash drops
// only its own state and the hints naming its canonicals. The tier is
// volatile: recovery rebuilds pins from the journaled shard maps and
// the tables are re-learned from fresh advertisements.
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
	// barriers) a shard agent processes per engine tick. Control work
	// is pure bookkeeping — no disk I/O — so it is never idle-gated:
	// hints must land while the system is busy or the inline recovery
	// never happens. 256, one inbox chunk, bounds what one tick
	// charges the request whose engine call runs it.
	msgsPerTick = 256
)

// Params is empty: the tier has no options. The type stays because
// NewTier's signature is among what bench/ pins (DESIGN.md §3).
type Params struct{}

// msgKind discriminates the shard-to-shard control messages.
type msgKind uint8

const (
	// msgPinReq: tier → owner. Pin the canonical and install its
	// hint; from an advertiser other than the owner, dup names its
	// duplicate copy for a targeted fold.
	msgPinReq msgKind = iota
	// msgGrant: owner → advertiser of a detected duplicate. The
	// canonical is pinned and hinted; fold the local duplicate dup.
	msgGrant
	// msgRefUp: beneficiary → owner. First local mapping referencing
	// the canonical appeared; add a ref pin.
	msgRefUp
	// msgRefDown: beneficiary → owner. Last local mapping vanished;
	// drop the ref pin.
	msgRefDown
	// msgBarrier: owner → every other live shard. The owner opened a
	// recall round (the recalled blocks' bindings are gone); ack.
	msgBarrier
	// msgAck: shard → owner. Everything sent before it, RefUps
	// included, is queued ahead of it.
	msgAck
	// msgPeerDown: tier → every other live shard, from CrashShard.
	// Shard from crashed as crash number seq; a recall round opened
	// before that stops waiting for its ack.
	msgPeerDown
	msgKinds
)

// msgNames names each kind in the agents' per-kind message gauges.
var msgNames = [msgKinds]string{"pinreq", "grant", "refup", "refdown", "barrier", "ack", "peerdown"}

// message is one entry in a shard's control inbox. Grants, pin
// traffic, barriers, acks, and crash notices ride reliable (unbounded)
// queues: none can be dropped without leaking pins. Every message
// carries its sender's shard and epoch; receivers drop messages whose
// epoch is no longer the sender's current one (fencing). Tier-origin
// messages are stamped with the epoch of the shard they concern: a
// PinReq with its advertiser's, a PeerDown with the dead shard's new
// one, so a later crash of that shard fences an earlier notice that its
// own notice covers. The fields run widest first, so a message packs
// into 40 B (TestHotLayouts).
type message struct {
	fp    chunk.Fingerprint
	canon alloc.PBA // remote-encoded owner+pba
	dup   alloc.PBA // msgPinReq/msgGrant: advertiser's local duplicate
	from  int32     // sending shard (ad origin for msgPinReq, the dead shard for msgPeerDown)
	epoch uint32    // sender's epoch at send time
	seq   uint32    // msgPeerDown: the tier's crash count after this crash
	kind  msgKind
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

const inboxChunkLen = 256 // messages per chunk: 10 KiB

type inboxChunk struct {
	msgs [inboxChunkLen]message
	next *inboxChunk
}

// push queues one message.
func (in *inbox) push(m message) {
	in.mu.Lock()
	if in.tail == nil || in.w == inboxChunkLen {
		in.link()
	}
	in.tail.msgs[in.w] = m
	in.w++
	in.n++
	in.peak = max(in.peak, in.n)
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
