package engine

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// lastWritten is a whole deduplication scheme in ten lines — remember
// where each fingerprint was last written, deduplicate every hit — and
// the reason Policy is an interface: the walk is drivable without the
// schemes of internal/core and internal/baseline.
type lastWritten struct {
	Passthrough
	at map[chunk.Fingerprint]alloc.PBA
}

func (p lastWritten) Lookup(_ *Base, w *WriteOp, at sim.Time) (sim.Time, error) {
	for i := range w.Chunks {
		w.Target[i], w.Dup[i] = p.at[w.Chunks[i].FP]
	}
	return at, nil
}
func (lastWritten) Decide(_ *Base, w *WriteOp) { copy(w.Dedupe, w.Dup) }
func (p lastWritten) Placed(_ *Base, w *WriteOp) {
	for k, pos := range w.Placed {
		p.at[w.Chunks[pos].FP] = w.PBAs[k]
	}
}

func TestWalkDrivableByAFakePolicy(t *testing.T) {
	b := testBase(t)
	b.Cfg.Verify = true
	e := New("fake", b, lastWritten{at: map[chunk.Fingerprint]alloc.PBA{}})
	w := func(at sim.Time, lba uint64, ids ...chunk.ContentID) {
		t.Helper()
		if _, err := e.Write(&trace.Request{Time: at, Op: trace.Write, LBA: lba, N: len(ids), Content: ids}); err != nil {
			t.Fatal(err)
		}
	}
	w(0, 0, 1, 2, 3)
	w(1000, 100, 1, 2, 3) // every chunk a hit: absorbed, no data I/O
	w(2000, 0, 4, 5, 6)   // overwrite: blocks 0–2 now held only via 100–102
	w(3000, 200, 1, 9)    // one hit, one fresh chunk: placed

	st := e.Stats()
	if st.Writes != 4 || st.WritesRemoved != 1 || st.ChunksDeduped != 4 || st.ChunksWritten != 7 {
		t.Fatalf("writes=%d removed=%d deduped=%d written=%d, want 4/1/4/7",
			st.Writes, st.WritesRemoved, st.ChunksDeduped, st.ChunksWritten)
	}
	for lba, want := range map[uint64]uint64{0: 4, 100: 1, 102: 3, 200: 1, 201: 9} {
		if got, ok := e.ReadContent(lba); !ok || got != want {
			t.Fatalf("lba %d = %d,%v want %d", lba, got, ok, want)
		}
	}
	if rt, err := e.Read(&trace.Request{Time: 4000, Op: trace.Read, LBA: 100, N: 3}); err != nil || rt <= 0 {
		t.Fatalf("read: rt=%v err=%v", rt, err)
	}
	if e.UsedBlocks() != 7 || e.Name() != "fake" || st.Reads != 1 {
		t.Fatalf("used=%d name=%q reads=%d", e.UsedBlocks(), e.Name(), st.Reads)
	}
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
