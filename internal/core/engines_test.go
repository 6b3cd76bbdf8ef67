package core

import (
	"math/rand"
	"testing"

	"github.com/pod-dedup/pod/internal/baseline"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

func testConfig() engine.Config {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	return engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
		NVRAMBytes:  1 << 22,
	}
}

// schemes is the scheme catalogue: every constructor returns the one
// engine type. Native alone keeps no Map table.
var schemes = []struct {
	name   string
	mk     func(engine.Config) *engine.Pipeline
	mapped bool
}{
	{"Native", baseline.NewNative, false},
	{"I/O-Dedup", baseline.NewIODedup, true},
	{"Post-Process", baseline.NewPostProcess, true},
	{"Full-Dedupe", baseline.NewFullDedupe, true},
	{"iDedup", baseline.NewIDedup, true},
	{"Select-Dedupe", NewSelectDedupe, true},
	{"POD", NewPOD, true},
}

func allEngines(t *testing.T) []engine.Engine {
	t.Helper()
	var out []engine.Engine
	for _, s := range schemes {
		out = append(out, s.mk(testConfig()))
	}
	return out
}

// randomWorkload builds a deterministic request stream exercising
// overwrites, duplicate content (sequential and scattered), and reads.
func randomWorkload(seed int64, n int) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []trace.Request
	var tm sim.Time
	var segments [][2]uint64 // written (lba, n) pairs
	nextContent := chunk.ContentID(1)
	contentAt := map[uint64]chunk.ContentID{}

	for i := 0; i < n; i++ {
		tm = tm.Add(sim.Duration(rng.Intn(2000)))
		if len(segments) > 0 && rng.Intn(100) < 30 {
			// read from a previously written segment
			seg := segments[rng.Intn(len(segments))]
			reqs = append(reqs, trace.Request{Time: tm, Op: trace.Read, LBA: seg[0], N: int(seg[1])})
			continue
		}
		nc := rng.Intn(12) + 1
		lba := uint64(rng.Intn(4000))
		ids := make([]chunk.ContentID, nc)
		switch rng.Intn(3) {
		case 0: // unique content
			for j := range ids {
				ids[j] = nextContent
				nextContent++
			}
		case 1: // rewrite existing content (maybe at a new location)
			for j := range ids {
				src := uint64(rng.Intn(4000))
				if c, ok := contentAt[src]; ok {
					ids[j] = c
				} else {
					ids[j] = nextContent
					nextContent++
				}
			}
		case 2: // duplicate a previously written segment's content run
			if len(segments) > 0 {
				seg := segments[rng.Intn(len(segments))]
				for j := range ids {
					if c, ok := contentAt[seg[0]+uint64(j)%seg[1]]; ok {
						ids[j] = c
					} else {
						ids[j] = nextContent
						nextContent++
					}
				}
			} else {
				for j := range ids {
					ids[j] = nextContent
					nextContent++
				}
			}
		}
		for j, id := range ids {
			contentAt[lba+uint64(j)] = id
		}
		segments = append(segments, [2]uint64{lba, uint64(nc)})
		reqs = append(reqs, trace.Request{Time: tm, Op: trace.Write, LBA: lba, N: nc, Content: ids})
	}
	return reqs
}

// Deduplicating engines must use no more capacity than Native, and
// Full-Dedupe must use the least.
func TestCapacityOrdering(t *testing.T) {
	reqs := randomWorkload(13, 800)
	used := map[string]uint64{}
	for _, e := range allEngines(t) {
		for i := range reqs {
			r := &reqs[i]
			if r.Op == trace.Write {
				e.Write(r)
			} else {
				e.Read(r)
			}
		}
		used[e.Name()] = e.UsedBlocks()
	}
	if used["Full-Dedupe"] > used["Native"] {
		t.Errorf("Full-Dedupe (%d) must not exceed Native (%d)", used["Full-Dedupe"], used["Native"])
	}
	if used["Select-Dedupe"] > used["Native"] {
		t.Errorf("Select-Dedupe (%d) must not exceed Native (%d)", used["Select-Dedupe"], used["Native"])
	}
	for name, u := range used {
		if used["Full-Dedupe"] > u {
			t.Errorf("Full-Dedupe (%d) must be ≤ %s (%d)", used["Full-Dedupe"], name, u)
		}
	}
}

// A fully redundant small write must be eliminated by Select-Dedupe
// (category 1) and bypassed by iDedup.
func TestSmallRedundantWriteBehaviour(t *testing.T) {
	write := func(e engine.Engine, tm sim.Time, lba uint64, ids ...chunk.ContentID) {
		e.Write(&trace.Request{Time: tm, Op: trace.Write, LBA: lba, N: len(ids), Content: ids})
	}

	sd := NewSelectDedupe(testConfig())
	write(sd, 0, 0, 42)
	write(sd, sim.Time(sim.Second), 100, 42) // duplicate, different LBA
	st := sd.Stats()
	if st.Cat1 != 1 || st.WritesRemoved != 1 || st.ChunksDeduped != 1 {
		t.Errorf("Select-Dedupe: cat1=%d removed=%d deduped=%d, want 1/1/1",
			st.Cat1, st.WritesRemoved, st.ChunksDeduped)
	}

	id := baseline.NewIDedup(testConfig())
	write(id, 0, 0, 42)
	write(id, sim.Time(sim.Second), 100, 42)
	if id.Stats().WritesRemoved != 0 || id.Stats().ChunksDeduped != 0 {
		t.Error("iDedup must bypass small writes entirely")
	}
}

// A partially redundant request below the threshold must not be
// deduplicated by Select-Dedupe (category 2), but must be by
// Full-Dedupe.
func TestPartialRedundancyPolicy(t *testing.T) {
	mk := func(lba uint64, ids ...chunk.ContentID) *trace.Request {
		return &trace.Request{Op: trace.Write, LBA: lba, N: len(ids), Content: ids}
	}
	sd := NewSelectDedupe(testConfig())
	sd.Write(mk(0, 1, 2, 3, 4, 5, 6, 7, 8))
	// 2 duplicate chunks (scattered within a new request) + 6 unique
	r2 := mk(100, 1, 100, 101, 2, 102, 103, 104, 105)
	r2.Time = sim.Time(sim.Second)
	sd.Write(r2)
	st := sd.Stats()
	if st.Cat2 != 1 || st.ChunksDeduped != 0 {
		t.Errorf("Select-Dedupe: cat2=%d deduped=%d, want 1/0", st.Cat2, st.ChunksDeduped)
	}

	fd := baseline.NewFullDedupe(testConfig())
	fd.Write(mk(0, 1, 2, 3, 4, 5, 6, 7, 8))
	r3 := mk(100, 1, 100, 101, 2, 102, 103, 104, 105)
	r3.Time = sim.Time(sim.Second)
	fd.Write(r3)
	if fd.Stats().ChunksDeduped != 2 {
		t.Errorf("Full-Dedupe deduped %d chunks, want 2", fd.Stats().ChunksDeduped)
	}
}

// A large fully redundant sequential write must be deduplicated by all
// deduplicating engines including iDedup.
func TestLargeSequentialRedundantWrite(t *testing.T) {
	ids := make([]chunk.ContentID, 16)
	for i := range ids {
		ids[i] = chunk.ContentID(1000 + i)
	}
	for _, mk := range []func(engine.Config) engine.Engine{
		func(c engine.Config) engine.Engine { return baseline.NewFullDedupe(c) },
		func(c engine.Config) engine.Engine { return baseline.NewIDedup(c) },
		func(c engine.Config) engine.Engine { return NewSelectDedupe(c) },
	} {
		e := mk(testConfig())
		e.Write(&trace.Request{Op: trace.Write, LBA: 0, N: 16, Content: ids})
		e.Write(&trace.Request{Time: sim.Time(sim.Second), Op: trace.Write, LBA: 1000, N: 16, Content: ids})
		st := e.Stats()
		if st.ChunksDeduped != 16 {
			t.Errorf("%s: deduped %d chunks, want 16", e.Name(), st.ChunksDeduped)
		}
		if st.WritesRemoved != 1 {
			t.Errorf("%s: removed %d writes, want 1", e.Name(), st.WritesRemoved)
		}
	}
}

// Overwriting an LBA whose block is shared must not corrupt the other
// referencer (the paper's data-consistency requirement).
func TestOverwriteSharedBlockPreservesOtherReference(t *testing.T) {
	sd := NewSelectDedupe(testConfig())
	w := func(tm sim.Time, lba uint64, ids ...chunk.ContentID) {
		sd.Write(&trace.Request{Time: tm, Op: trace.Write, LBA: lba, N: len(ids), Content: ids})
	}
	w(0, 0, 7)               // original copy
	w(sim.Time(1000), 50, 7) // deduplicated reference
	w(sim.Time(2000), 0, 8)  // overwrite the original LBA
	if got, ok := sd.ReadContent(50); !ok || got != 7 {
		t.Fatalf("shared reference corrupted: got %d,%v want 7", got, ok)
	}
	if got, _ := sd.ReadContent(0); got != 8 {
		t.Fatalf("overwrite lost: got %d want 8", got)
	}
}

func TestWriteRemovalOrdering(t *testing.T) {
	// On a redundancy-heavy workload Full-Dedupe must remove at least
	// as many write requests as Select-Dedupe, which must beat iDedup.
	reqs := randomWorkload(17, 1000)
	removed := map[string]float64{}
	for _, e := range allEngines(t) {
		for i := range reqs {
			r := &reqs[i]
			if r.Op == trace.Write {
				e.Write(r)
			} else {
				e.Read(r)
			}
		}
		removed[e.Name()] = e.Stats().WriteRemovalPct()
	}
	if removed["Full-Dedupe"] < removed["Select-Dedupe"] {
		t.Errorf("Full-Dedupe removal (%f) < Select-Dedupe (%f)",
			removed["Full-Dedupe"], removed["Select-Dedupe"])
	}
	if removed["Select-Dedupe"] < removed["iDedup"] {
		t.Errorf("Select-Dedupe removal (%f) < iDedup (%f)",
			removed["Select-Dedupe"], removed["iDedup"])
	}
	if removed["Native"] != 0 {
		t.Error("Native must remove nothing")
	}
}
