package baseline

import (
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

func cfg() engine.Config {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	return engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
	}
}

func wr(lba uint64, ids ...chunk.ContentID) *trace.Request {
	return &trace.Request{Op: trace.Write, LBA: lba, N: len(ids), Content: ids}
}

func at(req *trace.Request, t sim.Time) *trace.Request {
	req.Time = t
	return req
}

func seq(start uint64, n int) []chunk.ContentID {
	ids := make([]chunk.ContentID, n)
	for i := range ids {
		ids[i] = chunk.ContentID(start + uint64(i))
	}
	return ids
}

func TestNativeNeverDedupes(t *testing.T) {
	n := NewNative(cfg())
	n.Write(wr(0, 1, 2, 3))
	n.Write(at(wr(100, 1, 2, 3), 1000))
	st := n.Stats()
	if st.ChunksDeduped != 0 || st.WritesRemoved != 0 {
		t.Fatal("Native must not deduplicate")
	}
	if n.UsedBlocks() != 6 {
		t.Fatalf("used = %d, want 6", n.UsedBlocks())
	}
}

func TestNativeOverwriteInPlace(t *testing.T) {
	n := NewNative(cfg())
	n.Write(wr(5, 1))
	n.Write(at(wr(5, 2), 1000))
	if n.UsedBlocks() != 1 {
		t.Fatalf("in-place overwrite must not grow footprint: %d", n.UsedBlocks())
	}
	if id, ok := n.ReadContent(5); !ok || id != 2 {
		t.Fatalf("readback = %d,%v", id, ok)
	}
}

func TestNativeReadAccounting(t *testing.T) {
	n := NewNative(cfg())
	n.Write(wr(0, 1, 2))
	rt, _ := n.Read(&trace.Request{Time: 1000, Op: trace.Read, LBA: 0, N: 2})
	if rt <= 0 || n.Stats().Reads != 1 {
		t.Fatal("read accounting wrong")
	}
}

func TestFullDedupeNoFingerprintDelayForNative(t *testing.T) {
	// Native pays no fingerprint cost; Full-Dedupe pays 32µs per chunk.
	n := NewNative(cfg())
	f := NewFullDedupe(cfg())
	rn, _ := n.Write(wr(0, 1))
	rf, _ := f.Write(wr(0, 1))
	if rf < rn {
		// Full-Dedupe's first unique write costs at least as much as
		// Native's (fingerprinting + same write)
		t.Fatalf("full=%v native=%v", rf, rn)
	}
}

func TestFullDedupeDedupesEverything(t *testing.T) {
	f := NewFullDedupe(cfg())
	f.Write(wr(0, seq(100, 8)...))
	// scattered partial redundancy: Full-Dedupe still dedupes it
	f.Write(at(wr(100, 100, 900, 104, 901, 902, 903), sim.Time(sim.Second)))
	st := f.Stats()
	if st.ChunksDeduped != 2 {
		t.Fatalf("deduped = %d, want 2", st.ChunksDeduped)
	}
}

func TestFullDedupeColdLookupChargesDiskIO(t *testing.T) {
	c := cfg()
	c.MemoryBytes = 1 << 19 // tiny hot index
	f := NewFullDedupe(c)
	// write enough unique chunks to overflow the hot portion
	var tm sim.Time
	for i := uint64(0); i < 2000; i++ {
		f.Write(at(wr(i*4, seq(10000+i*4, 4)...), tm))
		tm = tm.Add(sim.Duration(sim.Millisecond) * 20)
	}
	// rewrite the oldest content: present in the full table, cold in
	// the hot portion → on-disk index lookups
	pre := f.Stats().IndexDiskIOs
	f.Write(at(wr(900000, seq(10000, 4)...), tm))
	if f.Stats().IndexDiskIOs <= pre {
		t.Fatal("cold duplicate lookup must charge on-disk index I/O")
	}
	if f.Stats().ChunksDeduped == 0 {
		t.Fatal("cold duplicate must still deduplicate")
	}
}

func TestBloomDeterministic(t *testing.T) {
	pos := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		f := chunk.ContentID(i).Fingerprint()
		if bloomAdmits(f) != bloomAdmits(f) {
			t.Fatal("bloom decision must be deterministic")
		}
		if bloomAdmits(f) {
			pos++
		}
	}
	rate := float64(pos) / trials
	if rate < 0.002 || rate > 0.03 {
		t.Fatalf("bloom false-positive rate = %.4f, want ≈0.01", rate)
	}
}

func TestIDedupSmallRequestBypass(t *testing.T) {
	d := NewIDedup(cfg())
	d.Write(wr(0, seq(100, 4)...))
	rt, _ := d.Write(at(wr(100, seq(100, 4)...), sim.Time(sim.Second)))
	st := d.Stats()
	if st.ChunksDeduped != 0 {
		t.Fatal("4-chunk request is below the 8-chunk threshold: must bypass")
	}
	// bypass also skips fingerprinting: response is pure write cost
	if rt <= 0 {
		t.Fatal("bad rt")
	}
}

func TestIDedupLargeSequentialDedupe(t *testing.T) {
	d := NewIDedup(cfg())
	d.Write(wr(0, seq(100, 12)...))
	d.Write(at(wr(500, seq(100, 12)...), sim.Time(sim.Second)))
	st := d.Stats()
	if st.ChunksDeduped != 12 || st.WritesRemoved != 1 {
		t.Fatalf("deduped=%d removed=%d, want 12/1", st.ChunksDeduped, st.WritesRemoved)
	}
}

func TestIDedupShortRunsNotDeduped(t *testing.T) {
	d := NewIDedup(cfg())
	d.Write(wr(0, seq(100, 12)...))
	// 12-chunk request whose duplicate runs are each 4 long (interrupted
	// by unique chunks): below the 8-sequence threshold
	mixed := append(append(seq(100, 4), seq(9000, 4)...), seq(104, 4)...)
	d.Write(at(wr(500, mixed...), sim.Time(sim.Second)))
	if d.Stats().ChunksDeduped != 0 {
		t.Fatalf("short duplicate runs must not be deduplicated, got %d", d.Stats().ChunksDeduped)
	}
}

func TestIDedupThresholdConfigurable(t *testing.T) {
	c := cfg()
	c.IDedupThreshold = 4
	d := NewIDedup(c)
	d.Write(wr(0, seq(100, 4)...))
	d.Write(at(wr(100, seq(100, 4)...), sim.Time(sim.Second)))
	if d.Stats().ChunksDeduped != 4 {
		t.Fatalf("threshold-4 iDedup should dedupe the 4-chunk rewrite, got %d", d.Stats().ChunksDeduped)
	}
}
