package fault

import (
	"errors"
	"testing"

	"github.com/pod-dedup/pod/internal/sim"
)

func TestClassOf(t *testing.T) {
	if ClassOf(nil) != 0 {
		t.Fatal("nil error has a class")
	}
	if ClassOf(errors.New("plain")) != Permanent {
		t.Fatal("unclassified errors must default to permanent")
	}
	te := New(KindTransientIO, Transient, 0, 0, 0)
	if ClassOf(te) != Transient || !IsTransient(te) {
		t.Fatal("transient error misclassified")
	}
	pe := New(KindDataLoss, Permanent, 0, 0, 0)
	if ClassOf(pe) != Permanent || IsTransient(pe) {
		t.Fatal("permanent error misclassified")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Check(0, 0, false, 0, 10); err != nil {
		t.Fatal("nil injector injected")
	}
	if got := in.Inflate(0, 0, 100); got != 100 {
		t.Fatalf("nil injector inflated: %d", got)
	}
	in.ReplaceDisk(0)
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats: %+v", s)
	}
}

func TestDiskFailPrecedence(t *testing.T) {
	in := NewInjector(Schedule{
		Fails:      []DiskFail{{Disk: 1, At: 100}},
		Transients: []TransientWindow{{Disk: 1, From: 0, Until: sim.Time(1 << 62), PerMille: 1000}},
		Sectors:    []SectorRange{{Disk: 1, Start: 0, Count: 10}},
	}, 2)

	// before the failure the (always-firing) transient window wins
	if err := in.Check(1, 99, false, 0, 1); err == nil || err.Kind != KindTransientIO {
		t.Fatalf("pre-failure: %v", err)
	}
	// from the failure time on, the device error shadows everything
	for _, tt := range []sim.Time{100, 5000} {
		err := in.Check(1, tt, false, 0, 1)
		if err == nil || err.Kind != KindDiskFailed || err.Class != Permanent {
			t.Fatalf("at %d: %v", tt, err)
		}
	}
	// the healthy disk is untouched
	if err := in.Check(0, 5000, false, 0, 1); err != nil {
		t.Fatalf("disk 0: %v", err)
	}
}

func TestTransientCoinDeterministic(t *testing.T) {
	sched := Schedule{
		Seed:       42,
		Transients: []TransientWindow{{Disk: -1, From: 0, Until: 10000, PerMille: 300}},
	}
	run := func() []bool {
		in := NewInjector(sched, 3)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.Check(i%3, sim.Time(i), false, 0, 1) != nil)
		}
		return out
	}
	a, b := run(), run()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs between identical runs", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("degenerate coin: %d/%d hits", hits, len(a))
	}

	// a different seed must change the sequence
	sched.Seed = 43
	c := NewInjector(sched, 3)
	same := true
	for i := 0; i < 200; i++ {
		if (c.Check(i%3, sim.Time(i), false, 0, 1) != nil) != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not alter the coin sequence")
	}
}

func TestSectorErrorsAndWriteHeal(t *testing.T) {
	in := NewInjector(Schedule{
		Sectors: []SectorRange{{Disk: 0, Start: 100, Count: 50, From: 10}},
	}, 1)

	// before From the range is latent-but-silent
	if err := in.Check(0, 5, false, 120, 1); err != nil {
		t.Fatalf("before From: %v", err)
	}
	// an overlapping read fails with the first bad block
	err := in.Check(0, 20, false, 90, 20)
	if err == nil || err.Kind != KindSectorError || err.Block != 100 {
		t.Fatalf("overlapping read: %v", err)
	}
	// a disjoint read is fine
	if err := in.Check(0, 20, false, 0, 100); err != nil {
		t.Fatalf("disjoint read: %v", err)
	}
	// writing the middle splits the range: head and tail still fail
	if err := in.Check(0, 30, true, 110, 10); err != nil {
		t.Fatalf("healing write: %v", err)
	}
	if err := in.Check(0, 40, false, 112, 4); err != nil {
		t.Fatalf("healed blocks still bad: %v", err)
	}
	if err := in.Check(0, 40, false, 105, 2); err == nil {
		t.Fatal("head of split range silently healed")
	}
	if err := in.Check(0, 40, false, 130, 2); err == nil {
		t.Fatal("tail of split range silently healed")
	}
	// a write over the whole range (the array's reconstruct-and-write-back
	// repair) clears the rest
	if err := in.Check(0, 45, true, 100, 50); err != nil {
		t.Fatalf("repair write: %v", err)
	}
	if err := in.Check(0, 50, false, 100, 50); err != nil {
		t.Fatalf("after the repair write: %v", err)
	}
	if s := in.Stats(); s.HealedRanges == 0 || s.Sector == 0 {
		t.Fatalf("stats did not track activity: %+v", s)
	}
}

func TestReplaceDiskClearsFailureAndSectors(t *testing.T) {
	in := NewInjector(Schedule{
		Fails:   []DiskFail{{Disk: 0, At: 0}},
		Sectors: []SectorRange{{Disk: 0, Start: 0, Count: 10}},
		Slow:    []SlowWindow{{Disk: 0, From: 0, Until: 1000, Factor: 3}},
	}, 1)
	if err := in.Check(0, 10, false, 0, 1); err == nil || err.Kind != KindDiskFailed {
		t.Fatalf("want disk failure: %v", err)
	}
	in.ReplaceDisk(0)
	if err := in.Check(0, 10, false, 0, 10); err != nil {
		t.Fatalf("replaced disk still faulty: %v", err)
	}
	// slow windows model the transport, not the device: they survive
	if got := in.Inflate(0, 10, 100); got != 300 {
		t.Fatalf("slow window lost on replace: %d", got)
	}
	if s := in.Stats(); s.Replaced != 1 {
		t.Fatalf("replace not counted: %+v", s)
	}
}

func TestInflateOutsideWindow(t *testing.T) {
	in := NewInjector(Schedule{
		Slow: []SlowWindow{{Disk: 0, From: 100, Until: 200, Factor: 4}},
	}, 1)
	if got := in.Inflate(0, 50, 10); got != 10 {
		t.Fatalf("inflated outside window: %d", got)
	}
	if got := in.Inflate(0, 150, 10); got != 40 {
		t.Fatalf("window factor: %d", got)
	}
	if s := in.Stats(); s.SlowAccesses != 1 {
		t.Fatalf("slow accesses: %+v", s)
	}
}

func TestScheduleNamesOutOfRangeDisk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range disk accepted")
		}
	}()
	NewInjector(Schedule{Sectors: []SectorRange{{Disk: 5, Start: 0, Count: 1}}}, 2)
}
