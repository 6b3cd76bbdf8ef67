package raid

import (
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/sim"
)

func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not mention %q", r, substr)
		}
	}()
	f()
}

// TestFailValidation is the regression test for the Fail footguns:
// out-of-range indices and a second RAID5 failure must be loud errors,
// not silent corruption.
func TestFailValidation(t *testing.T) {
	a := new5(t)
	mustPanicWith(t, "out of range", func() { a.Fail(4) })
	mustPanicWith(t, "out of range", func() { a.Fail(-1) })

	a.Fail(1)
	a.Fail(1) // idempotent: re-failing the failed disk is a no-op
	if a.failed != 1 {
		t.Fatalf("failed = %d, want 1", a.failed)
	}
	mustPanicWith(t, "double disk failure", func() { a.Fail(2) })

	r0 := New(RAID0, newDisks(2), 16)
	mustPanicWith(t, "no redundancy", func() { r0.Fail(0) })
}

// TestSectorErrorRepairedFromParity injects a latent sector range and
// checks a read consumes it: the block is reconstructed from the
// surviving disks, written back, and the range is healed for later
// reads.
func TestSectorErrorRepairedFromParity(t *testing.T) {
	a := new5(t)
	inj := fault.NewInjector(fault.Schedule{
		Sectors: []fault.SectorRange{{Disk: 0, Start: 0, Count: 16}},
	}, 4)
	a.SetInjector(inj)

	done, err := a.Read(0, 0, 8) // stripe 0, unit 0 lives on disk 0
	if err != nil {
		t.Fatalf("read over latent sectors must be repaired, got %v", err)
	}
	if done == 0 {
		t.Fatal("repair consumed no time")
	}
	st := a.Stats()
	if st.SectorRepairs == 0 || st.DegradedReads == 0 {
		t.Fatalf("repair not accounted: %+v", st)
	}
	// the write-back healed the range: a later read is clean
	before := inj.Stats().Sector
	if _, err := a.Read(done, 0, 8); err != nil {
		t.Fatalf("re-read after repair: %v", err)
	}
	if inj.Stats().Sector != before {
		t.Fatal("healed range still injecting")
	}
}

// TestTransientErrorPropagates checks the retry contract: the array does
// not absorb transient faults — the serving layer owns retries.
func TestTransientErrorPropagates(t *testing.T) {
	a := new5(t)
	a.SetInjector(fault.NewInjector(fault.Schedule{
		Transients: []fault.TransientWindow{{Disk: -1, From: 0, Until: 1 << 50, PerMille: 1000}},
	}, 4))

	_, err := a.Read(0, 0, 4)
	if !fault.IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
	if a.Stats().TransientErrors == 0 {
		t.Fatal("transient error not counted")
	}
}

// TestDiskFailureDegradesThenRebuilds is the self-healing path: a
// whole-device failure mid-workload degrades the array, installs a hot
// spare, and the paced rebuild sweep eventually restores full
// redundancy — all without a foreground error.
func TestDiskFailureDegradesThenRebuilds(t *testing.T) {
	ds := make([]*disk.Disk, 4)
	for i := range ds {
		ds[i] = disk.New(disk.DefaultParams(1 << 10)) // small: rebuild can finish
	}
	a := New(RAID5, ds, 16)
	a.SetInjector(fault.NewInjector(fault.Schedule{
		Fails: []fault.DiskFail{{Disk: 2, At: 1000}},
	}, 4))

	// before the failure: clean
	done, err := a.Read(0, 0, 64)
	if err != nil {
		t.Fatalf("pre-failure read: %v", err)
	}
	// first access past the failure time touching disk 2 triggers
	// degrade-and-rebuild, still served via reconstruction
	done, err = a.Read(sim.MaxTime(done, 2000), 0, 256)
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !a.rebuilding {
		t.Fatal("failure did not start a rebuild")
	}
	if a.failed != 2 {
		t.Fatalf("failed = %d, want 2", a.failed)
	}
	st := a.Stats()
	if st.FailEvents != 1 || st.DegradedReads == 0 {
		t.Fatalf("failure not accounted: %+v", st)
	}

	// drive virtual time forward until the sweep finishes (1<<10 blocks
	// per disk, one unit per step)
	tt := done
	for i := 0; i < 10000; i++ {
		if !a.rebuilding {
			break
		}
		tt = tt.Add(sim.Duration(10000))
		if _, err := a.Read(tt, 0, 1); err != nil {
			t.Fatalf("read during rebuild: %v", err)
		}
	}
	if a.rebuilding {
		t.Fatal("rebuild never completed")
	}
	if a.failed != -1 {
		t.Fatalf("array still degraded after rebuild: failed = %d", a.failed)
	}
	st = a.Stats()
	if st.RebuildsDone != 1 || st.RebuildIOs == 0 {
		t.Fatalf("rebuild not accounted: %+v", st)
	}

	// fully healed: reads are clean and not degraded anymore
	deg := st.DegradedReads
	if _, err := a.Read(tt.Add(1), 0, 256); err != nil {
		t.Fatalf("post-rebuild read: %v", err)
	}
	if a.Stats().DegradedReads != deg {
		t.Fatal("post-rebuild read still reconstructing")
	}
}

// TestRaid0FailureIsDataLoss: without redundancy a device failure is a
// permanent data-loss error, not a panic and not a silent zero.
func TestRaid0FailureIsDataLoss(t *testing.T) {
	a := New(RAID0, newDisks(2), 16)
	a.SetInjector(fault.NewInjector(fault.Schedule{
		Fails: []fault.DiskFail{{Disk: 0, At: 0}},
	}, 2))
	_, err := a.Read(10, 0, 4)
	fe, ok := err.(*fault.Error)
	if !ok || fe.Kind != fault.KindDataLoss || fe.Class != fault.Permanent {
		t.Fatalf("want permanent data loss, got %v", err)
	}
	if a.Stats().DataLossErrors == 0 {
		t.Fatal("data loss not counted")
	}
}

// TestDoubleFailureIsDataLoss: a second device failing while degraded
// exhausts RAID5 redundancy.
func TestDoubleFailureIsDataLoss(t *testing.T) {
	a := new5(t)
	a.SetInjector(fault.NewInjector(fault.Schedule{
		Fails: []fault.DiskFail{{Disk: 0, At: 0}, {Disk: 1, At: 0}},
	}, 4))
	_, err := a.Read(10, 0, 786432/2) // wide read: touches every spindle
	fe, ok := err.(*fault.Error)
	if !ok || fe.Kind != fault.KindDataLoss {
		t.Fatalf("want data loss, got %v", err)
	}
}
