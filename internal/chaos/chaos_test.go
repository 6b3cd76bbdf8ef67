package chaos

import (
	"reflect"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/trace"
)

func TestBuildScenarios(t *testing.T) {
	for _, name := range Scenarios() {
		s, err := Build(name, 4, 1<<16, 1_000_000, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Sectors) == 0 && len(s.Transients) == 0 && len(s.Slow) == 0 && len(s.Fails) == 0 {
			t.Fatalf("%s compiled to an empty schedule", name)
		}
		if s.Seed != 7 {
			t.Fatalf("%s lost the seed", name)
		}
	}
	if _, err := Build("nope", 4, 1<<16, 1_000_000, 7); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario accepted: %v", err)
	}
	if _, err := Build("full", 0, 1<<16, 1_000_000, 7); err == nil {
		t.Fatal("degenerate array accepted")
	}
	if _, err := Build("full", 4, 1<<16, 0, 7); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

// TestScenarioTable: a scenario that borrows another's fault plan
// compiles to exactly that plan — what sets it apart is what it arms.
func TestScenarioTable(t *testing.T) {
	for _, name := range Scenarios() {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan == "" {
			continue
		}
		if !sc.Scanner && !sc.Tier && !sc.Outage {
			t.Fatalf("%s borrows the %s plan and arms nothing: it is that scenario", name, sc.Plan)
		}
		got, _ := Build(name, 4, 1<<16, 1_000_000, 7)
		want, _ := Build(sc.Plan, 4, 1<<16, 1_000_000, 7)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s compiles to %+v, its plan %s to %+v", name, got, sc.Plan, want)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
}

func TestBuildFullIsTheAcceptanceCombo(t *testing.T) {
	s, err := Build("full", 4, 1<<16, 900_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sectors) == 0 || len(s.Fails) != 1 || len(s.Transients) == 0 {
		t.Fatalf("full is missing a fault class: %+v", s)
	}
	f := s.Fails[0]
	if f.At <= 0 || f.At >= 900_000 {
		t.Fatalf("disk failure at %d is not mid-run", f.At)
	}
	for _, r := range s.Sectors {
		if r.Start+r.Count > 1<<16 {
			t.Fatalf("sector range %+v exceeds the disk", r)
		}
	}
}

func wr(lba uint64, ids ...chunk.ContentID) *api.Request {
	return &api.Request{Op: api.OpWrite, LBA: lba, Content: ids}
}

func TestOracleDetectsLossAndCrossReference(t *testing.T) {
	o := NewOracle(nil)
	o.RecordWrite(wr(10, 1, 2), 0)
	o.RecordWrite(wr(20, 3), 0)

	store := map[uint64]uint64{10: 1, 11: 2} // lba 20 lost
	viol, checked := o.Check(func(lba uint64) (uint64, bool) {
		v, ok := store[lba]
		return v, ok
	})
	if checked != 3 || len(viol) != 1 || !viol[0].Lost || viol[0].LBA != 20 {
		t.Fatalf("viol=%v checked=%d", viol, checked)
	}

	store[20] = 99 // wrong content
	viol, _ = o.Check(func(lba uint64) (uint64, bool) {
		v, ok := store[lba]
		return v, ok
	})
	if len(viol) != 1 || viol[0].Lost || viol[0].Got != 99 || viol[0].Want != 3 {
		t.Fatalf("cross-reference not detected: %v", viol)
	}
	if !strings.Contains(viol[0].String(), "cross-referenced") {
		t.Fatalf("violation string: %s", viol[0])
	}

	store[20] = 3 // healthy
	if viol, _ = o.Check(func(lba uint64) (uint64, bool) {
		v, ok := store[lba]
		return v, ok
	}); len(viol) != 0 {
		t.Fatalf("clean store flagged: %v", viol)
	}
}

func TestOracleIndeterminateSkipsFailedWrites(t *testing.T) {
	o := NewOracle(nil)
	o.RecordWrite(wr(0, 1, 2, 3), 0)
	// an engine-touched failed overwrite: blocks may hold either
	// generation, so they are exempt from checking...
	o.RecordFailedWrite(wr(1, 9, 9), 0, true)
	viol, checked := o.Check(func(lba uint64) (uint64, bool) { return 0, false })
	if checked != 1 || len(viol) != 1 || viol[0].LBA != 0 {
		t.Fatalf("viol=%v checked=%d", viol, checked)
	}
	// ...until a later acked write restores a firm expectation
	o.RecordWrite(wr(1, 7, 8), 0)
	_, checked = o.Check(func(lba uint64) (uint64, bool) { return 0, false })
	if checked != 3 {
		t.Fatalf("re-acked blocks not checked: %d", checked)
	}
	// a refused write (touched=false) leaves expectations alone
	o.RecordFailedWrite(wr(0, 5), 0, false)
	_, checked = o.Check(func(lba uint64) (uint64, bool) { return 0, false })
	if checked != 3 {
		t.Fatalf("refused write changed the shadow: %d", checked)
	}
	acked, failed, indet, _ := o.Stats()
	if acked != 2 || failed != 2 || indet != 0 {
		t.Fatalf("stats: %d %d %d", acked, failed, indet)
	}
}

func TestOracleSpilledChunksExcluded(t *testing.T) {
	// granule of 4: lbas 0-3 owned by shard 0, 4-7 by shard 1
	owner := func(lba uint64) int { return int(lba / 4 % 2) }
	o := NewOracle(owner)

	// shard 1 native-writes lba 4
	o.RecordWrite(wr(4, 50), 1)
	// shard 0 serves a write spanning the boundary: lbas 2..5 — the
	// spill (4, 5) updates shard 0's engine only, invisible to routed
	// reads, so the oracle must keep expecting 50 at lba 4
	o.RecordWrite(wr(2, 10, 11, 12, 13), 0)

	reads := map[uint64]uint64{2: 10, 3: 11, 4: 50}
	viol, checked := o.Check(func(lba uint64) (uint64, bool) {
		v, ok := reads[lba]
		return v, ok
	})
	if len(viol) != 0 {
		t.Fatalf("spill flagged: %v", viol)
	}
	if checked != 3 {
		t.Fatalf("checked %d blocks, want 3", checked)
	}
	if _, _, _, spilled := o.Stats(); spilled != 2 {
		t.Fatalf("spilled = %d, want 2", spilled)
	}
	// failed spill writes likewise only mark owned blocks
	o.RecordFailedWrite(wr(3, 9, 9), 0, true)
	_, checked = o.Check(func(lba uint64) (uint64, bool) {
		v, ok := reads[lba]
		return v, ok
	})
	if checked != 2 {
		t.Fatalf("failed spill marking wrong: checked %d, want 2", checked)
	}
}

// TestOracleScriptedVerdict pins a whole verdict on one script: the
// violations, lost and cross-referenced, in LBA order whatever order
// the writes came in; the reads Check makes (each verified block once,
// ascending, none of an indeterminate, spilled or never-acked block);
// and Stats.
func TestOracleScriptedVerdict(t *testing.T) {
	owner := func(lba uint64) int { return int(lba / 4 % 2) } // granules of 4 over two shards
	last := uint64(trace.LBALimit - 1)                        // owned by shard 1
	o := NewOracle(owner)
	o.RecordWrite(wr(last, 11), 1)
	o.RecordWrite(wr(8, 1, 2, 3), 0)
	o.RecordWrite(wr(0, 4, 5), 0)
	o.RecordWrite(wr(5, 6), 1)
	o.RecordWrite(wr(3, 7, 8), 0)              // lba 4 is shard 1's: spill
	o.RecordFailedWrite(wr(9, 9), 0, true)     // acked, then indeterminate
	o.RecordFailedWrite(wr(20, 9, 9), 1, true) // indeterminate, never acked
	o.RecordFailedWrite(wr(0, 9), 0, false)    // refused: nothing changes

	acked, failed, indet, spilled := o.Stats()
	if acked != 5 || failed != 3 || indet != 3 || spilled != 1 {
		t.Fatalf("stats = %d acked, %d failed, %d indeterminate, %d spilled; want 5, 3, 3, 1", acked, failed, indet, spilled)
	}

	store := map[uint64]uint64{0: 4, 3: 99, 5: 6, 8: 1, 9: 42, last: 12} // 1 and 10 lost
	var reads []uint64
	read := func(lba uint64) (uint64, bool) {
		reads = append(reads, lba)
		v, ok := store[lba]
		return v, ok
	}
	want := []Violation{
		{LBA: 1, Want: 5, Lost: true},
		{LBA: 3, Want: 7, Got: 99},
		{LBA: 10, Want: 3, Lost: true},
		{LBA: last, Want: 11, Got: 12},
	}
	for pass := 0; pass < 2; pass++ { // Check changes nothing
		reads = reads[:0]
		viol, checked := o.Check(read)
		if !reflect.DeepEqual(viol, want) {
			t.Fatalf("pass %d: violations %v, want %v", pass, viol, want)
		}
		if wantReads := []uint64{0, 1, 3, 5, 8, 10, last}; checked != len(wantReads) || !reflect.DeepEqual(reads, wantReads) {
			t.Fatalf("pass %d: checked %d, read %v; want %d, %v", pass, checked, reads, len(wantReads), wantReads)
		}
	}

	o.RecordWrite(wr(20, 13), 1) // a firm expectation again
	if _, _, indet, _ = o.Stats(); indet != 2 {
		t.Fatalf("indeterminate = %d after re-acking lba 20, want 2", indet)
	}
	store[20] = 13
	if viol, checked := o.Check(read); len(viol) != len(want) || checked != 8 {
		t.Fatalf("after re-acking lba 20: %d violations, %d checked; want %d, 8", len(viol), checked, len(want))
	}
}
