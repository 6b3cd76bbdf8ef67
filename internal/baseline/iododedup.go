package baseline

import (
	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// ioDedup reproduces the scheme of Koller & Rangaswami (FAST'10),
// "I/O Deduplication: Utilizing Content Similarity to Improve I/O
// Performance" — the first column of the paper's Table I. It uses
// content fingerprints to improve *read* performance only:
//
//   - writes are never eliminated ("write requests are still issued to
//     disks even if their data has already been stored"), so there is
//     no capacity saving;
//   - the read cache is content-addressed: a read whose block content
//     is already cached under any other address is a hit (§V calls
//     this exploiting content similarity);
//   - when several on-disk replicas of the content exist, the read is
//     served from the replica nearest the last access position
//     (dynamic replica retrieval reducing seek distance).
//
// Fingerprinting happens on the write path (the scheme must learn where
// content lives), so it pays the hash latency without the write savings
// — exactly the trade Table I summarizes. As a policy: every request is
// fingerprinted, nothing is looked up or deduplicated, placements feed
// the replica directory, and the read is its own.
type ioDedup struct {
	engine.Passthrough

	// content-addressed read cache: contents, not addresses
	ccache *cache.LRU[chunk.ContentID, struct{}]
	// replica directory: where each hot content lives (bounded)
	replicas *cache.LRU[chunk.Fingerprint, []alloc.PBA]
	lastPBA  alloc.PBA
}

// maxReplicasTracked bounds the per-content replica list.
const maxReplicasTracked = 4

// NewIODedup returns an I/O Deduplication engine.
func NewIODedup(cfg engine.Config) *engine.Pipeline {
	return engine.New("I/O-Dedup", engine.NewBase(cfg), newIODedup(cfg))
}

func newIODedup(cfg engine.Config) *ioDedup {
	// the whole DRAM budget serves the content cache + replica
	// directory (no dedup index cache is needed on the write path)
	blocks := int(cfg.WithDefaults().MemoryBytes) / chunk.Size / 2
	if blocks < 1 {
		blocks = 1
	}
	entries := int(cfg.WithDefaults().MemoryBytes) / 2 / 64
	if entries < 1 {
		entries = 1
	}
	return &ioDedup{
		ccache:   cache.NewLRU[chunk.ContentID, struct{}](blocks),
		replicas: cache.NewLRU[chunk.Fingerprint, []alloc.PBA](entries),
	}
}

// Placed records where the request's content now lives, for the read
// path's replica choice.
func (d *ioDedup) Placed(_ *engine.Base, w *engine.WriteOp) {
	for k, pos := range w.Placed {
		d.recordReplica(w.Chunks[pos].FP, w.PBAs[k])
	}
}

func (d *ioDedup) recordReplica(fp chunk.Fingerprint, pba alloc.PBA) {
	list, _ := d.replicas.Peek(fp)
	for _, p := range list {
		if p == pba {
			return
		}
	}
	if len(list) >= maxReplicasTracked {
		list = list[1:]
	}
	d.replicas.Put(fp, append(append([]alloc.PBA(nil), list...), pba))
}

// nearest picks the replica of content id closest to the previous
// access position — the scheme's seek-reduction mechanism. The directory
// is a hint (blocks are freed and reused behind its back), so each
// candidate is checked against the content model first.
func (d *ioDedup) nearest(b *engine.Base, candidates []alloc.PBA, home alloc.PBA, id chunk.ContentID) alloc.PBA {
	best := home
	bestDist := dist(home, d.lastPBA)
	for _, c := range candidates {
		if got, ok := b.Store.Read(c); !ok || got != id {
			continue
		}
		if dd := dist(c, d.lastPBA); dd < bestDist {
			best, bestDist = c, dd
		}
	}
	return best
}

func dist(a, b alloc.PBA) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

// Read serves each chunk through the content-addressed cache, fetching
// misses from the nearest replica of the content.
func (d *ioDedup) Read(b *engine.Base, req *trace.Request) (sim.Duration, error) {
	t := req.Time
	st := b.St

	done := t
	anyMiss := false
	for i := 0; i < req.N; i++ {
		lba := req.LBA + uint64(i)
		pba, ok := b.Map.Lookup(lba)
		if !ok {
			pba = alloc.PBA(lba % b.DataBlocks())
		}
		id, known := b.Store.Read(pba)
		if known {
			if _, hit := d.ccache.Get(id); hit {
				st.CacheHits++
				continue
			}
		}
		st.CacheMisses++
		target := pba
		if known {
			if list, ok := d.replicas.Peek(id.Fingerprint()); ok {
				target = d.nearest(b, list, pba, id)
			}
		}
		c, err := b.Array.Read(t, uint64(target), 1)
		done = sim.MaxTime(done, c)
		st.ReadIOs++
		if err != nil {
			return done.Sub(t), err
		}
		d.lastPBA = target
		anyMiss = true
		if known {
			d.ccache.Put(id, struct{}{})
		}
	}
	if !anyMiss {
		return engine.MemHitUS, nil
	}
	b.Ph.Observe(metrics.PhaseDiskRead, int64(done.Sub(t)))
	return done.Sub(t), nil
}
