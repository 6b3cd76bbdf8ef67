package globalfp

import (
	"unsafe"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// hintWays is the bucket associativity. A direct-mapped table of the
// same size lost 2.5 points of writes removed on serve-tier; four ways
// of LRU lost none against the unbounded-in-effect LRU it replaced.
const hintWays = 4

// hintSlot is one fp → canonical binding. canon == 0 marks an empty
// slot: a stored canonical is always remote-encoded, so never zero.
type hintSlot struct {
	fp    chunk.Fingerprint
	canon alloc.PBA
}

// hintTable is the tier's bounded store of hints, and the only place one
// lives: fp → remote-encoded canonical bindings, each installed once by
// the canonical's owner and read by every shard. Each fingerprint
// partition holds one, guarded by the partition lock. It is a flat 4-way
// set-associative array — no allocation after construction, no pointers
// for the collector to trace. Within a bucket the live slots are a
// prefix ordered newest first: a hit moves to the front, a put into a
// full bucket overwrites the oldest.
//
// A binding found here is valid by construction, which is why
// Base.TryDedupe trusts a remote target without a content check it
// could not perform anyway (the block is a peer's): the owner installs a
// binding only after it has validated the canonical and taken the hinted
// pin, the owner never mutates a pinned block, a recall deletes the
// binding before the owner opens the barrier round whose acks release
// the pin, and a crashed owner's bindings are dropped while every shard
// is quiescent (Tier.CrashShard, under every shard lock). Nothing
// re-installs one during the outage: a down owner drains no pin
// requests. So TryDedupe needs no owner-down check either. Losing a
// binding early — an overwrite — costs one deduplication opportunity
// and nothing else.
//
// Hints are never promoted into the iCache: the hot index and its ghost
// hold only the shard's own blocks, so the Swap Module sees the shard's
// own locality and nothing a peer wrote.
type hintTable struct {
	slots []hintSlot
	mask  uint64 // bucket count - 1

	installs   int64 // puts
	hits       int64 // get found a binding
	overwrites int64 // put replaced a live binding of another fingerprint
}

// newHintTable sizes the table to at least entries slots, rounded up to
// a power of two (and to one whole bucket).
func newHintTable(entries int) *hintTable {
	n := hintWays
	for n < entries {
		n <<= 1
	}
	return &hintTable{slots: make([]hintSlot, n), mask: uint64(n/hintWays - 1)}
}

// bytes reports the table's fixed memory footprint.
func (h *hintTable) bytes() int64 { return int64(len(h.slots)) * int64(unsafe.Sizeof(hintSlot{})) }

// bucket returns fp's bucket. A fingerprint's word is uniform, so its
// bits are the hash: those above the ones partOf reads, since every
// fingerprint of one partition shares those.
func (h *hintTable) bucket(fp *chunk.Fingerprint) []hintSlot {
	i := (fp.Word() / partitions & h.mask) * hintWays
	return h.slots[i : i+hintWays : i+hintWays]
}

// toFront rotates b[i] to b[0], keeping the order of the rest.
func toFront(b []hintSlot, i int) {
	s := b[i]
	copy(b[1:i+1], b[:i])
	b[0] = s
}

// find returns fp's bucket and its slot there, -1 when it has none.
func (h *hintTable) find(fp *chunk.Fingerprint) ([]hintSlot, int) {
	b := h.bucket(fp)
	for i := 0; i < hintWays && b[i].canon != 0; i++ {
		if b[i].fp == *fp {
			return b, i
		}
	}
	return b, -1
}

// put binds fp → canon as the bucket's newest entry. A resident
// fingerprint is rebound in place (no second slot); a new one takes the
// first empty slot, or the oldest binding's when there is none.
func (h *hintTable) put(fp chunk.Fingerprint, canon alloc.PBA) {
	b, i := h.find(&fp)
	if i < 0 {
		for i = 0; i < hintWays-1 && b[i].canon != 0; i++ {
		}
		if b[i].canon != 0 {
			h.overwrites++
		}
	}
	h.installs++
	b[i] = hintSlot{fp: fp, canon: canon}
	toFront(b, i)
}

// get returns fp's binding and marks it the bucket's newest, unless
// the canonical's owner is in skip (a bitmask of shards): such a binding
// is not found and keeps its place.
func (h *hintTable) get(fp *chunk.Fingerprint, skip uint64) (alloc.PBA, bool) {
	b, i := h.find(fp)
	if i < 0 {
		return 0, false
	}
	if owner, _ := alloc.RemoteParts(b[i].canon); skip&(uint64(1)<<uint(owner)) != 0 {
		return 0, false
	}
	toFront(b, i)
	h.hits++
	return b[0].canon, true
}

// peek returns fp's binding without touching recency or the hit count.
func (h *hintTable) peek(fp chunk.Fingerprint) (alloc.PBA, bool) {
	if b, i := h.find(&fp); i >= 0 {
		return b[i].canon, true
	}
	return 0, false
}

// remove deletes the binding fp → canon if that is still what the table
// holds (a recall names both: a newer install for the same fingerprint
// under another canonical is not the recalled one).
func (h *hintTable) remove(fp chunk.Fingerprint, canon alloc.PBA) {
	if b, i := h.find(&fp); i >= 0 && b[i].canon == canon {
		copy(b[i:], b[i+1:])
		b[hintWays-1] = hintSlot{}
	}
}

// dropOwner deletes every binding whose canonical lives on shard owner.
func (h *hintTable) dropOwner(owner int) {
	for base := 0; base < len(h.slots); base += hintWays {
		b := h.slots[base : base+hintWays]
		k := 0
		for i := 0; i < hintWays && b[i].canon != 0; i++ {
			if o, _ := alloc.RemoteParts(b[i].canon); o != owner {
				b[k] = b[i]
				k++
			}
		}
		clear(b[k:])
	}
}

func (h *hintTable) clear() { clear(h.slots) }
