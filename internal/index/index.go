// Package index implements the fingerprint Index table of §III-B.
//
// POD keeps only the *hot* fingerprint entries in memory, organized as
// an LRU with a per-entry Count that records how many write requests
// hit the entry — capturing temporal locality and protecting referenced
// blocks (the engine pins an entry's physical block in the Map table
// for as long as the entry is cached). A miss in the hot index simply
// means a lost deduplication opportunity; POD never performs on-disk
// index lookups on the write path. POD's own hot index is the iCache's
// fingerprint directory (internal/icache), which hands out this
// package's Entry; Hot below is the in-memory portion of Full.
//
// Full-Dedupe, the traditional baseline, instead maintains the complete
// fingerprint table. Entries not present in its in-memory hot portion
// require an on-disk lookup I/O, which is precisely the index-lookup
// disk bottleneck the paper's §II-B describes; the Full type reports
// whether each lookup was served from memory so the engine can charge
// that I/O.
package index

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/probe"
)

// Entry is one hot-index entry: where the chunk lives and how often
// write requests have hit it.
type Entry struct {
	PBA   alloc.PBA
	Count uint32
}

// Evicted reports an entry pushed out of the hot index; the caller must
// release the pin it holds on the entry's physical block.
type Evicted struct {
	FP    chunk.Fingerprint
	Entry Entry
}

// Hot is the in-memory hot fingerprint index.
type Hot struct {
	lru *cache.LRU[chunk.Fingerprint, Entry]
}

// NewHot returns a hot index holding up to capacity entries.
func NewHot(capacity int) *Hot {
	return &Hot{lru: cache.NewLRU[chunk.Fingerprint, Entry](capacity)}
}

// Len reports the number of cached entries.
func (h *Hot) Len() int { return h.lru.Len() }

// Lookup finds fp, increments its Count (a write-request hit, per the
// paper), promotes it, and returns the updated entry. The update is
// in-place via LRU.Touch — one map lookup and one list move, where the
// old Get-then-Put idiom paid both twice per hit.
func (h *Hot) Lookup(fp chunk.Fingerprint) (Entry, bool) {
	e, ok := h.lru.Touch(fp)
	if !ok {
		return Entry{}, false
	}
	e.Count++
	return *e, true
}

// Peek returns the entry without promoting it or touching Count.
func (h *Hot) Peek(fp chunk.Fingerprint) (Entry, bool) {
	return h.lru.Peek(fp)
}

// Insert adds or updates fp → pba with Count starting at zero. It
// returns the evicted entry, if any, whose block pin the caller must
// release. The caller acquires the pin for the inserted entry.
func (h *Hot) Insert(fp chunk.Fingerprint, pba alloc.PBA) (Evicted, bool) {
	if old, ok := h.lru.Peek(fp); ok {
		if old.PBA == pba {
			return Evicted{}, false
		}
		// remapped content: replace, surfacing the old pin for release
		h.lru.Put(fp, Entry{PBA: pba})
		return Evicted{FP: fp, Entry: old}, true
	}
	ev, evicted := h.lru.Put(fp, Entry{PBA: pba})
	if evicted {
		return Evicted{FP: ev.Key, Entry: ev.Val}, true
	}
	return Evicted{}, false
}

// Remove deletes fp, returning its entry so the caller can unpin.
func (h *Hot) Remove(fp chunk.Fingerprint) (Entry, bool) {
	return h.lru.Take(fp)
}

// Full is the complete fingerprint table used by the Full-Dedupe
// baseline: every stored chunk's fingerprint is known, but only the hot
// subset lives in memory — a lookup that misses the hot portion costs
// the engine an on-disk index I/O.
type Full struct {
	all *probe.Map[chunk.Fingerprint, alloc.PBA]
	rev *probe.Map[alloc.PBA, chunk.Fingerprint]
	hot *Hot

	memHits, diskLookups int64
}

// NewFull returns a full index whose in-memory hot portion holds
// hotCapacity entries.
func NewFull(hotCapacity int) *Full {
	return &Full{
		all: probe.NewMap[chunk.Fingerprint, alloc.PBA](0),
		rev: probe.NewMap[alloc.PBA, chunk.Fingerprint](0),
		hot: NewHot(hotCapacity),
	}
}

// Len reports the total number of indexed fingerprints.
func (f *Full) Len() int { return f.all.Len() }

// MemHits and DiskLookups report where lookups were served.
func (f *Full) MemHits() int64     { return f.memHits }
func (f *Full) DiskLookups() int64 { return f.diskLookups }

// Lookup searches for fp. memHit reports whether the answer came from
// the in-memory hot portion; when false and the fingerprint exists (or
// must be proven absent), the engine charges an on-disk index lookup.
// Found entries are promoted into the hot portion; the hot portion of
// the full index holds no pins (Full-Dedupe's consistency comes from
// Forget on free), so evictions here are discarded.
func (f *Full) Lookup(fp chunk.Fingerprint) (pba alloc.PBA, found, memHit bool) {
	if e, ok := f.hot.Lookup(fp); ok {
		f.memHits++
		return e.PBA, true, true
	}
	f.diskLookups++
	pba, found = f.all.Get(fp)
	if found {
		f.hot.Insert(fp, pba)
	}
	return pba, found, false
}

// Insert records fp → pba in both the full table and the hot portion.
func (f *Full) Insert(fp chunk.Fingerprint, pba alloc.PBA) {
	if old, ok := f.all.Get(fp); ok {
		f.rev.Delete(old)
	}
	f.all.Put(fp, pba)
	f.rev.Put(pba, fp)
	f.hot.Insert(fp, pba)
}

// Forget removes the index entry referencing pba, called when the block
// is freed so the index never resurrects a dead block.
func (f *Full) Forget(pba alloc.PBA) {
	fp, ok := f.rev.Get(pba)
	if !ok {
		return
	}
	f.rev.Delete(pba)
	f.all.Delete(fp)
	f.hot.Remove(fp)
}
