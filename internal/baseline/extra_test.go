package baseline

import (
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// --- I/O-Dedup ---

func TestIODedupNeverRemovesWrites(t *testing.T) {
	d := NewIODedup(cfg())
	d.Write(wr(0, 1, 2, 3))
	d.Write(at(wr(100, 1, 2, 3), sim.Time(sim.Second)))
	st := d.Stats()
	if st.WritesRemoved != 0 || st.ChunksDeduped != 0 {
		t.Fatal("I/O-Dedup must not eliminate writes")
	}
	if d.UsedBlocks() != 6 {
		t.Fatalf("used = %d, want 6 (no capacity saving)", d.UsedBlocks())
	}
}

func TestIODedupContentAddressedCacheHits(t *testing.T) {
	d := NewIODedup(cfg())
	d.Write(wr(0, 7))
	d.Write(at(wr(100, 7), sim.Time(sim.Second))) // same content elsewhere
	// read the first copy: miss, caches content 7
	d.Read(&trace.Request{Time: sim.Time(2 * sim.Second), Op: trace.Read, LBA: 0, N: 1})
	// read the second copy: DIFFERENT address, same content → hit
	d.Read(&trace.Request{Time: sim.Time(3 * sim.Second), Op: trace.Read, LBA: 100, N: 1})
	st := d.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("content-addressed cache hits = %d, want 1 (cross-address hit)", st.CacheHits)
	}
}

func TestIODedupReplicaDirectoryBounded(t *testing.T) {
	pol := newIODedup(cfg())
	d := engine.New("I/O-Dedup", engine.NewBase(cfg()), pol)
	var tm sim.Time
	for i := 0; i < maxReplicasTracked+3; i++ {
		d.Write(at(wr(uint64(i*10), 42), tm))
		tm = tm.Add(sim.Duration(sim.Millisecond) * 100)
	}
	list, ok := pol.replicas.Peek(chunk.ContentID(42).Fingerprint())
	if !ok || len(list) > maxReplicasTracked {
		t.Fatalf("replica list of %d (tracked %v), cap %d", len(list), ok, maxReplicasTracked)
	}
}

// The replica directory is a hint: an overwrite frees a block without
// telling it, so the read path must never be sent to a listed block
// that no longer holds the content.
func TestIODedupNeverReadsStaleReplica(t *testing.T) {
	pol := newIODedup(cfg())
	d := engine.New("I/O-Dedup", engine.NewBase(cfg()), pol)
	b := d.Base()
	d.Write(wr(0, 7))
	stale, _ := b.Map.Lookup(0)
	d.Write(at(wr(100, 7), sim.Time(sim.Millisecond)))
	d.Write(at(wr(0, 8), sim.Time(2*sim.Millisecond))) // frees the first copy of 7
	if _, live := b.Store.Read(stale); live {
		t.Fatal("setup: the overwritten block is still live")
	}

	list, _ := pol.replicas.Peek(chunk.ContentID(7).Fingerprint())
	home, _ := b.Map.Lookup(100)
	pol.lastPBA = stale // the freed block is now the nearest candidate
	got := pol.nearest(b, list, home, 7)
	if id, ok := b.Store.Read(got); !ok || id != 7 {
		t.Fatalf("read of content 7 steered to block %d holding %d,%v (directory %v)", got, id, ok, list)
	}
}

// --- Post-Process ---

// scans reads the scanner's progress the way an operator would: from
// the engine's registry.
func scans(p *engine.Pipeline) (scanned, merged int64) {
	g := p.Metrics().Snapshot().Gauges
	return g["postprocess_blocks_scanned"], g["postprocess_blocks_merged"]
}

func TestPostProcessWritesHaveNoInlineCost(t *testing.T) {
	n := NewNative(cfg())
	p := NewPostProcess(cfg())
	rn, _ := n.Write(wr(0, 1, 2, 3, 4))
	rp, _ := p.Write(wr(0, 1, 2, 3, 4))
	// post-process pays no fingerprint delay; its write should not be
	// slower than Native's by more than the layout difference
	if rp > rn*2 {
		t.Fatalf("post-process write %v vastly slower than native %v", rp, rn)
	}
	if p.Stats().WritesRemoved != 0 {
		t.Fatal("post-process must not remove writes inline")
	}
}

func TestPostProcessBackgroundMergeReclaimsSpace(t *testing.T) {
	p := NewPostProcess(cfg())
	p.Write(wr(0, 1, 2, 3, 4))
	p.Write(at(wr(100, 1, 2, 3, 4), sim.Time(sim.Second)))
	if p.UsedBlocks() != 8 {
		t.Fatalf("before scan: used = %d, want 8", p.UsedBlocks())
	}
	p.Flush(sim.Time(10 * sim.Second))
	if p.UsedBlocks() != 4 {
		t.Fatalf("after scan: used = %d, want 4 (duplicates merged)", p.UsedBlocks())
	}
	scanned, merged := scans(p)
	if scanned == 0 || merged != 4 {
		t.Fatalf("scanned=%d merged=%d", scanned, merged)
	}
	// logical view intact after merging
	for i := uint64(0); i < 4; i++ {
		if id, ok := p.ReadContent(100 + i); !ok || id != uint64(i+1) {
			t.Fatalf("lba %d corrupted after merge: %d,%v", 100+i, id, ok)
		}
	}
}

func TestPostProcessScanSkipsOverwrittenBlocks(t *testing.T) {
	p := NewPostProcess(cfg())
	p.Write(wr(0, 1))
	p.Write(at(wr(0, 2), sim.Time(sim.Millisecond)))    // overwrite before any scan
	p.Write(at(wr(50, 1), sim.Time(2*sim.Millisecond))) // content 1 written elsewhere
	p.Flush(sim.Time(10 * sim.Second))
	if id, ok := p.ReadContent(0); !ok || id != 2 {
		t.Fatalf("lba 0 = %d,%v want 2", id, ok)
	}
	if id, ok := p.ReadContent(50); !ok || id != 1 {
		t.Fatalf("lba 50 = %d,%v want 1", id, ok)
	}
}

func TestPostProcessScanIntervalHonored(t *testing.T) {
	p := NewPostProcess(cfg())
	p.Write(wr(0, 1))
	p.Write(at(wr(10, 1), sim.Time(sim.Millisecond))) // before the first interval
	if scanned, _ := scans(p); scanned != 0 {
		t.Fatal("scanner ran before its interval")
	}
	// a request arriving after the interval triggers the pass
	p.Write(at(wr(20, 99), sim.Time(3*sim.Second)))
	if scanned, _ := scans(p); scanned == 0 {
		t.Fatal("scanner did not run after its interval")
	}
}

// TestPostProcessChargesBackgroundIO: the background scan's disk reads
// are counted as background reads, not as iCache swap-ins.
func TestPostProcessChargesBackgroundIO(t *testing.T) {
	p := NewPostProcess(cfg())
	p.Write(wr(0, 1, 2, 3, 4, 5, 6, 7, 8))
	p.Flush(sim.Time(5 * sim.Second))
	if p.Stats().BackgroundIOs == 0 {
		t.Fatal("background scan must charge disk reads")
	}
}
