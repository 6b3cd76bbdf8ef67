package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// TestSchemeConformance runs every scheme constructor through the
// shared request walk and holds each to the same contract: the logical
// view equals a map-of-LBA model whatever the policy deduplicated, the
// request accounting is exact, a failed write is invisible, the walk
// holds under content-defined chunking, and every Map-table scheme
// recovers its acknowledged writes from the journal.
func TestSchemeConformance(t *testing.T) {
	for _, s := range schemes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Run("read-your-writes", func(t *testing.T) { conformReadYourWrites(t, s.mk, s.mapped) })
			t.Run("failed-write-invisible", func(t *testing.T) { conformFailedWrite(t, s.mk) })
			if s.mapped { // Native never splits a request
				t.Run("cdc", func(t *testing.T) { conformCDC(t, s.mk) })
			}
		})
	}
}

type model map[uint64]chunk.ContentID

func (m model) check(t *testing.T, e engine.Engine, when string) {
	t.Helper()
	for lba, want := range m {
		if got, ok := e.ReadContent(lba); !ok || got != uint64(want) {
			t.Fatalf("%s %s: lba %d = %d,%v want %d", e.Name(), when, lba, got, ok, want)
		}
	}
}

func conformReadYourWrites(t *testing.T, mk func(engine.Config) *engine.Pipeline, mapped bool) {
	e := mk(testConfig()) // Verify on: every write re-read against the content model
	reqs := randomWorkload(7, 600)
	m := model{}
	var reads, writes int64
	for i := range reqs {
		r := &reqs[i]
		var rt sim.Duration
		var err error
		if r.Op == trace.Write {
			rt, err = e.Write(r)
			writes++
			for j, id := range r.Content {
				m[r.LBA+uint64(j)] = id
			}
		} else {
			rt, err = e.Read(r)
			reads++
		}
		if err != nil || rt <= 0 {
			t.Fatalf("request %d: rt=%v err=%v", i, rt, err)
		}
	}
	m.check(t, e, "after replay")

	st := e.Stats()
	if st.Reads != reads || st.Writes != writes || st.ReadRT.N() != reads || st.WriteRT.N() != writes {
		t.Fatalf("accounting: reads %d/%d writes %d/%d, want %d and %d",
			st.Reads, st.ReadRT.N(), st.Writes, st.WriteRT.N(), reads, writes)
	}
	if st.WriteErrors != 0 || st.ReadErrors != 0 {
		t.Fatalf("fault-free run counted errors: %d/%d", st.WriteErrors, st.ReadErrors)
	}

	// out-of-line work (Post-Process's queue) must not change content
	e.Flush(reqs[len(reqs)-1].Time.Add(sim.Second))
	m.check(t, e, "after flush")

	applied, err := e.CrashAndRecover()
	if !mapped {
		if err == nil {
			t.Fatal("a scheme without a Map table claimed journal recovery")
		}
		return
	}
	if err != nil || applied == 0 {
		t.Fatalf("recover: applied=%d err=%v", applied, err)
	}
	m.check(t, e, "after recovery")
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// and the recovered engine keeps serving
	if _, err := e.Write(&trace.Request{Time: sim.Time(3600 * sim.Second), Op: trace.Write, LBA: 0, N: 2, Content: []chunk.ContentID{1 << 40, 1<<40 + 1}}); err != nil {
		t.Fatal(err)
	}
}

// conformFailedWrite fails one write's disk I/O outright (a RAID0
// single disk has nothing to reconstruct from): nothing of the request
// may become visible, it counts as an error and not as a write, and a
// retry after the fault window lands normally.
func conformFailedWrite(t *testing.T, mk func(engine.Config) *engine.Pipeline) {
	cfg := engine.Config{
		Array:       raid.New(raid.RAID0, []*disk.Disk{disk.New(disk.DefaultParams(1 << 14))}, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
		NVRAMBytes:  1 << 20,
	}
	cfg.Array.SetInjector(fault.NewInjector(fault.Schedule{
		Transients: []fault.TransientWindow{{
			Disk: -1, From: sim.Time(sim.Second), Until: sim.Time(2 * sim.Second), PerMille: 1000,
		}},
	}, 1))
	e := mk(cfg)
	w := func(at sim.Time, lba uint64, ids ...chunk.ContentID) error {
		_, err := e.Write(&trace.Request{Time: at, Op: trace.Write, LBA: lba, N: len(ids), Content: ids})
		return err
	}
	if err := w(0, 0, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	before := e.UsedBlocks()

	// overwrites LBAs 2–3 and extends to 4–9, inside the fault window
	// (8 chunks, so iDedup fingerprints it rather than bypassing)
	fresh := []chunk.ContentID{11, 12, 13, 14, 15, 16, 17, 18}
	err := w(sim.Time(sim.Second)+1, 2, fresh...)
	if err == nil {
		t.Fatal("write inside the fault window succeeded")
	}
	if !fault.IsTransient(err) {
		t.Fatalf("untyped failure: %v", err)
	}
	model{0: 1, 1: 2, 2: 3, 3: 4}.check(t, e, "after failed write")
	for lba := uint64(4); lba < 10; lba++ {
		if id, ok := e.ReadContent(lba); ok {
			t.Fatalf("failed write left lba %d visible (content %d)", lba, id)
		}
	}
	if e.UsedBlocks() != before {
		t.Fatalf("failed write leaked space: %d -> %d blocks", before, e.UsedBlocks())
	}
	if st := e.Stats(); st.Writes != 1 || st.WriteErrors != 1 || st.WriteRT.N() != 1 {
		t.Fatalf("accounting after failure: writes=%d errors=%d rt samples=%d, want 1/1/1",
			st.Writes, st.WriteErrors, st.WriteRT.N())
	}

	if err := w(sim.Time(3*sim.Second), 2, fresh...); err != nil {
		t.Fatalf("retry after the window: %v", err)
	}
	model{0: 1, 1: 2, 2: 11, 9: 18}.check(t, e, "after retry")
}

// conformCDC replays the byte-shifted snapshot trace through the
// content-defined splitter: chunk counts differ from slot counts and
// ContentIDs are derived from bytes, so the walk may assume neither.
// Verify checks every write; the audit checks nothing leaked.
func conformCDC(t *testing.T, mk func(engine.Config) *engine.Pipeline) {
	tr, _, dims := workload.ShiftedSnapshot(0.05)
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(dims.FootprintChunks))
	}
	e := mk(engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: dims.MemoryBytes,
		Chunking:    cdc.Params{Algo: cdc.Gear},
		Verify:      true,
	})
	var writes int64
	for i := range tr.Requests {
		r := &tr.Requests[i]
		var err error
		if r.Op == trace.Write {
			_, err = e.Write(r)
			writes++
		} else {
			_, err = e.Read(r)
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := e.Stats().Writes; got != writes {
		t.Fatalf("writes counted %d, want %d", got, writes)
	}
	if g := e.Metrics().Snapshot().Gauges["cdc_emitted_chunks"]; g == 0 {
		t.Fatal("the splitter emitted nothing: CDC was not on the path")
	}
	if err := e.Base().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCDCStreamWrittenSlotBySlot: a stream written one slot at a time
// hands the splitter windows shorter than a chunk, many of which hold
// no chunk start. Such a write emits nothing — its bytes belong to the
// chunk the preceding window emitted past its edge — and is absorbed
// without data I/O; the pieces together emit exactly the chunks of the
// whole-extent split.
func TestCDCStreamWrittenSlotBySlot(t *testing.T) {
	const obj, gen, slots = 5, 1, 256
	ids := make([]chunk.ContentID, slots)
	for i := range ids {
		ids[i] = cdc.EncodeEdit(obj, gen, uint32(i))
	}
	for _, algo := range []cdc.Algo{cdc.Gear, cdc.SeqCDC} {
		p := cdc.Params{Algo: algo}
		whole, _ := cdc.NewSplitter(p).Split(nil, ids)
		var empty int64
		for i := range ids {
			if chs, _ := cdc.NewSplitter(p).Split(nil, ids[i:i+1]); len(chs) == 0 {
				empty++
			}
		}
		if empty == 0 {
			t.Fatalf("%v: every one-slot window holds a chunk start; the case is not exercised", algo)
		}

		cfg := testConfig() // Verify on
		cfg.Chunking = p
		e := NewPOD(cfg)
		for i := range ids {
			req := trace.Request{Time: sim.Time(i) * sim.Time(sim.Millisecond), Op: trace.Write,
				LBA: uint64(i), N: 1, Content: ids[i : i+1]}
			if _, err := e.Write(&req); err != nil {
				t.Fatalf("%v: slot %d: %v", algo, i, err)
			}
		}
		if g := e.Metrics().Snapshot().Gauges["cdc_emitted_chunks"]; g != int64(len(whole)) {
			t.Fatalf("%v: slot-by-slot writes emitted %d chunks, the whole-extent split %d", algo, g, len(whole))
		}
		if st := e.Stats(); st.Writes != slots || st.WritesRemoved < empty {
			t.Fatalf("%v: %d writes, %d removed; want %d writes with the %d empty ones removed",
				algo, st.Writes, st.WritesRemoved, slots, empty)
		}
		if err := e.Base().CheckConsistency(); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

// TestCDCSplitPastTheBoundFails: a write of n slots can split into more
// than n content-defined chunks, each mapped at its own LBA, so a
// request that Validate accepts at the top of the address space can
// still reach past the bound. The write fails, naming it, and maps
// nothing; the same request lower down is written.
func TestCDCSplitPastTheBoundFails(t *testing.T) {
	const n = 4
	p := cdc.Params{Algo: cdc.Gear}
	ids := make([]chunk.ContentID, n)
	for seed := chunk.ContentID(1); ; seed++ {
		for i := range ids {
			ids[i] = seed*1000 + chunk.ContentID(i)
		}
		if chs, _ := cdc.NewSplitter(p).Split(nil, ids); len(chs) > n {
			break
		}
	}
	cfg := testConfig()
	cfg.Chunking = p
	e := NewPOD(cfg)
	req := trace.Request{Op: trace.Write, LBA: trace.LBALimit - n, N: n, Content: ids}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(&req); err == nil || !strings.Contains(err.Error(), fmt.Sprint(trace.LBALimit)) {
		t.Fatalf("write splitting past the bound: %v, want an error naming %d", err, trace.LBALimit)
	}
	if m := e.Base().Map.Len(); m != 0 {
		t.Fatalf("the failed write mapped %d LBAs", m)
	}
	req.LBA = 0
	if _, err := e.Write(&req); err != nil {
		t.Fatal(err)
	}
}
