package raid

import (
	"testing"
	"testing/quick"

	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/sim"
)

func newDisks(n int) []*disk.Disk {
	ds := make([]*disk.Disk, n)
	for i := range ds {
		ds[i] = disk.New(disk.DefaultParams(1 << 18))
	}
	return ds
}

func new5(t *testing.T) *Array {
	t.Helper()
	return New(RAID5, newDisks(4), 16) // 4 disks, 64 KB stripe unit
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero unit", func() { New(RAID0, newDisks(1), 0) })
	mustPanic("raid5 too few", func() { New(RAID5, newDisks(2), 16) })
	mustPanic("unequal disks", func() {
		ds := newDisks(3)
		ds[1] = disk.New(disk.DefaultParams(1 << 10))
		New(RAID5, ds, 16)
	})
}

func TestCapacity(t *testing.T) {
	a := new5(t)
	// 4 disks × 2^18 blocks, unit 16: stripes = 2^18/16 = 16384,
	// data = 16384 × 16 × 3 = 786432
	if a.DataBlocks() != 786432 {
		t.Fatalf("data blocks = %d, want 786432", a.DataBlocks())
	}
	r0 := New(RAID0, newDisks(4), 16)
	if r0.DataBlocks() != 1048576 {
		t.Fatalf("raid0 data blocks = %d, want 1048576", r0.DataBlocks())
	}
	if a.DataDisksPerStripe() != 3 || r0.DataDisksPerStripe() != 4 {
		t.Error("data disks per stripe wrong")
	}
}

func TestParityRotation(t *testing.T) {
	a := new5(t)
	seen := map[int]bool{}
	for s := uint64(0); s < 4; s++ {
		p := a.parityDisk(s)
		if p < 0 || p >= 4 {
			t.Fatalf("parity disk %d out of range", p)
		}
		if seen[p] {
			t.Fatalf("parity disk %d repeated within one rotation cycle", p)
		}
		seen[p] = true
	}
	// data disks must avoid the parity disk
	for s := uint64(0); s < 8; s++ {
		p := a.parityDisk(s)
		for du := 0; du < 3; du++ {
			if a.diskFor(s, du) == p {
				t.Fatalf("stripe %d: data unit %d mapped to parity disk", s, du)
			}
		}
	}
}

func TestSplitCoversRequest(t *testing.T) {
	a := new5(t)
	segs := a.split(10, 40) // crosses unit and stripe boundaries
	var total uint64
	for _, s := range segs {
		total += s.n
		if s.n == 0 || s.n > 16 {
			t.Fatalf("segment size %d out of range", s.n)
		}
	}
	if total != 40 {
		t.Fatalf("segments cover %d blocks, want 40", total)
	}
}

func TestReadCompletes(t *testing.T) {
	a := new5(t)
	done, _ := a.Read(1000, 0, 8)
	if done <= 1000 {
		t.Fatal("read must take time")
	}
	if a.Stats().LogicalReads != 1 {
		t.Fatal("logical read not counted")
	}
}

func TestZeroLengthOps(t *testing.T) {
	a := new5(t)
	r0, _ := a.Read(5, 0, 0)
	w0, _ := a.Write(5, 0, 0)
	if r0 != 5 || w0 != 5 {
		t.Fatal("zero-length ops must complete immediately")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := new5(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Read(0, a.DataBlocks(), 1)
}

func TestSmallWriteIsRMW(t *testing.T) {
	a := new5(t)
	a.Write(0, 0, 1)
	s := a.Stats()
	if s.RMWStripes != 1 || s.FullStripes != 0 {
		t.Fatalf("small write: rmw=%d full=%d, want 1/0", s.RMWStripes, s.FullStripes)
	}
	// RMW = read old data + read old parity + write data + write parity
	if s.DiskIOs != 4 {
		t.Fatalf("disk IOs = %d, want 4", s.DiskIOs)
	}
}

func TestFullStripeWriteSkipsReads(t *testing.T) {
	a := new5(t)
	a.Write(0, 0, 48) // 3 data units × 16 = full stripe
	s := a.Stats()
	if s.FullStripes != 1 || s.RMWStripes != 0 {
		t.Fatalf("full-stripe write: rmw=%d full=%d, want 0/1", s.RMWStripes, s.FullStripes)
	}
	if s.DiskIOs != 4 { // 3 data writes + 1 parity write
		t.Fatalf("disk IOs = %d, want 4", s.DiskIOs)
	}
	var reads int64
	for _, d := range s.Disk {
		reads += d.Reads
	}
	if reads != 0 {
		t.Fatalf("full-stripe write issued %d reads", reads)
	}
}

func TestSmallWriteCostlierPerBlockThanFullStripe(t *testing.T) {
	a := new5(t)
	smallDone, _ := a.Write(0, 0, 1)
	fullDone, _ := new5(t).Write(0, 0, 48)
	small := smallDone.Sub(0)
	full := fullDone.Sub(0)
	if small.Seconds()/1 <= full.Seconds()/48 {
		t.Fatalf("per-block small-write cost (%v) must exceed full-stripe (%v/48)", small, full)
	}
}

func TestRMWWritePhaseAfterReadPhase(t *testing.T) {
	a := new5(t)
	done, _ := a.Write(0, 0, 1)
	// completion must cover at least two serialized disk accesses
	// (read ≈ seek+rot, then write ≈ seek+rot)
	if done.Sub(0) < 8000 {
		t.Fatalf("RMW completed too fast: %v", done.Sub(0))
	}
}

func TestDegradedRead(t *testing.T) {
	a := new5(t)
	a.Write(0, 0, 48)
	pre := a.Stats().DiskIOs
	// find which disk serves data unit 0 of stripe 0 and fail it
	target := a.diskFor(0, 0)
	a.Fail(target)
	a.Read(0, 0, 8)
	s := a.Stats()
	if s.DegradedReads != 1 {
		t.Fatalf("degraded reads = %d, want 1", s.DegradedReads)
	}
	if s.DiskIOs-pre != 3 { // reconstruct from 3 survivors
		t.Fatalf("degraded read issued %d IOs, want 3", s.DiskIOs-pre)
	}
}

func TestDoubleFailurePanics(t *testing.T) {
	a := new5(t)
	a.Fail(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Fail(1)
}

func TestFailOnRAID0Panics(t *testing.T) {
	a := New(RAID0, newDisks(2), 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Fail(0)
}

func TestRAID0WritesNoParity(t *testing.T) {
	a := New(RAID0, newDisks(4), 16)
	a.Write(0, 0, 64) // 4 units
	s := a.Stats()
	if s.DiskIOs != 4 {
		t.Fatalf("raid0 disk IOs = %d, want 4", s.DiskIOs)
	}
	var reads int64
	for _, d := range s.Disk {
		reads += d.Reads
	}
	if reads != 0 {
		t.Fatal("raid0 write issued reads")
	}
}

// busyUntil reports the latest busy horizon across a's spindles.
func busyUntil(a *Array) sim.Time {
	var m sim.Time
	for _, d := range a.disks {
		m = sim.MaxTime(m, d.BusyUntil())
	}
	return m
}

func TestBacklogAndBusyUntil(t *testing.T) {
	a := new5(t)
	done, _ := a.Write(0, 0, 1)
	if h := busyUntil(a); h != done {
		t.Fatalf("busyUntil %v != completion %v", h, done)
	}
	if a.Backlog(0) <= 0 {
		t.Fatal("backlog should be positive right after submit")
	}
	if a.Backlog(done) != 0 {
		t.Fatal("backlog should drain by completion")
	}
}

// Property: split segments tile the request exactly, never cross unit
// boundaries, and map within disk capacity.
func TestSplitProperty(t *testing.T) {
	a := New(RAID5, newDisks(4), 16)
	f := func(startRaw, nRaw uint32) bool {
		start := uint64(startRaw) % a.DataBlocks()
		n := uint64(nRaw)%256 + 1
		if start+n > a.DataBlocks() {
			n = a.DataBlocks() - start
			if n == 0 {
				return true
			}
		}
		segs := a.split(start, n)
		var total uint64
		for _, s := range segs {
			total += s.n
			if s.inUnit+s.n > a.unit {
				return false // crosses unit boundary
			}
			if s.off+s.n > 1<<18 {
				return false // off-disk
			}
			if s.disk == a.parityDisk(s.stripe) {
				return false // data on parity disk
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: completions never precede arrival (different requests may
// complete out of order across spindles, so only per-request causality
// is asserted), and the busy horizon never moves backwards.
func TestArrayCausalityProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		a := New(RAID5, newDisks(4), 16)
		var tm sim.Time
		var horizon sim.Time
		for _, raw := range ops {
			tm = tm.Add(sim.Duration(raw % 500))
			start := uint64(raw) % (a.DataBlocks() - 64)
			n := uint64(raw%63) + 1
			var done sim.Time
			if raw%3 == 0 {
				done, _ = a.Read(tm, start, n)
			} else {
				done, _ = a.Write(tm, start, n)
			}
			if done < tm {
				return false
			}
			if busyUntil(a) < horizon {
				return false
			}
			horizon = busyUntil(a)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRAID5SmallWrite(b *testing.B) {
	a := New(RAID5, newDisks(4), 16)
	var tm sim.Time
	for i := 0; i < b.N; i++ {
		tm = tm.Add(100)
		a.Write(tm, uint64(i*7)%(a.DataBlocks()-8), 2)
	}
}

func BenchmarkRAID5FullStripeWrite(b *testing.B) {
	a := New(RAID5, newDisks(4), 16)
	var tm sim.Time
	stripe := a.unit * uint64(a.DataDisksPerStripe())
	for i := 0; i < b.N; i++ {
		tm = tm.Add(100)
		start := (uint64(i) * stripe) % (a.DataBlocks() - stripe)
		start -= start % stripe
		a.Write(tm, start, stripe)
	}
}
