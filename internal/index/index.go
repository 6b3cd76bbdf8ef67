// Package index implements the fingerprint Index table of §III-B.
//
// POD keeps only the *hot* fingerprint entries in memory, organized as
// an LRU with a per-entry Count that records how many write requests
// hit the entry — capturing temporal locality. A miss in the hot index
// simply means a lost deduplication opportunity; POD never performs
// on-disk index lookups on the write path. POD's hot index is the
// iCache's fingerprint directory (internal/icache), which hands out this
// package's Entry.
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

// Full is the complete fingerprint table used by the Full-Dedupe
// baseline: every stored chunk's fingerprint is known, but only the hot
// subset lives in memory — a lookup that misses the hot portion costs
// the engine an on-disk index I/O. The hot portion is always a subset of
// the table, with the same blocks. Beside the table sits its block →
// fingerprint reverse map, which Forget reads: a fingerprint here may be
// a SHA-1, which the block's content cannot cheaply re-derive.
type Full struct {
	all *probe.Map[chunk.Fingerprint, alloc.PBA]
	rev *probe.Map[alloc.PBA, chunk.Fingerprint]
	hot *cache.LRU[chunk.Fingerprint, alloc.PBA]
}

// NewFull returns a full index whose in-memory hot portion holds
// hotCapacity entries.
func NewFull(hotCapacity int) *Full {
	return &Full{
		all: probe.NewMap[chunk.Fingerprint, alloc.PBA](0),
		rev: probe.NewMap[alloc.PBA, chunk.Fingerprint](0),
		hot: cache.NewLRU[chunk.Fingerprint, alloc.PBA](hotCapacity),
	}
}

// Lookup searches for fp. memHit reports whether the answer came from
// the in-memory hot portion; when false and the fingerprint exists (or
// must be proven absent), the engine charges an on-disk index lookup.
// Found entries are promoted into the hot portion, whose evictions are
// discarded (Full-Dedupe's consistency comes from Forget on free).
func (f *Full) Lookup(fp chunk.Fingerprint) (pba alloc.PBA, found, memHit bool) {
	if pba, ok := f.hot.Get(fp); ok {
		return pba, true, true
	}
	pba, found = f.all.Get(fp)
	if found {
		f.hot.Put(fp, pba)
	}
	return pba, found, false
}

// Insert records fp → pba, replacing fp's previous block, in both the
// table and the hot portion. A binding the hot portion already holds
// keeps its place: re-inserting it does not promote it.
func (f *Full) Insert(fp chunk.Fingerprint, pba alloc.PBA) {
	if old, ok := f.all.Get(fp); ok {
		f.rev.Delete(old)
	}
	f.all.Put(fp, pba)
	f.rev.Put(pba, fp)
	if old, ok := f.hot.Peek(fp); !ok || old != pba {
		f.hot.Put(fp, pba)
	}
}

// Forget removes the index entry referencing pba, called when the block
// is freed so the index never resurrects a dead block.
func (f *Full) Forget(pba alloc.PBA) {
	if fp, ok := f.rev.Take(pba); ok {
		f.all.Delete(fp)
		f.hot.Remove(fp)
	}
}
