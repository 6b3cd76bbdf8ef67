package main

import (
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/perf"
)

func traj(scale float64, entries ...perf.Entry) *perf.Trajectory {
	return &perf.Trajectory{Scale: scale, Entries: entries}
}

// TestNewEntryWithoutBaselineIsLoggedAndSkipped: a trajectory entry
// whose label has no committed baseline must be reported but never
// counted as a regression — a fresh bench label lands one run before
// its reference exists.
func TestNewEntryWithoutBaselineIsLoggedAndSkipped(t *testing.T) {
	ref := traj(1, perf.Entry{Name: "replay", WallMS: 2000, Allocs: 1e6})
	cur := traj(1,
		perf.Entry{Name: "replay", WallMS: 2000, Allocs: 1e6},
		perf.Entry{Name: "globalfp-8", WallMS: 9e9, Allocs: 9e9}, // absurd: must still not fail
	)
	var out strings.Builder
	regressions, err := compare(&out, ref, cur, limits{maxAllocFrac: 0.10, minAllocs: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("unreferenced entry counted as regression: %d\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "globalfp-8") || !strings.Contains(out.String(), "no reference") {
		t.Fatalf("unreferenced entry not logged:\n%s", out.String())
	}
}

// TestReferenceOnlyEntryIsLoggedAndSkipped: names only in the
// committed baseline (e.g. flood-sweep entries a plain run does not
// regenerate) are reported, not failed.
func TestReferenceOnlyEntryIsLoggedAndSkipped(t *testing.T) {
	ref := traj(1,
		perf.Entry{Name: "replay", WallMS: 2000, Allocs: 1e6},
		perf.Entry{Name: "flood-16", WallMS: 5000, Allocs: 2e6},
	)
	cur := traj(1, perf.Entry{Name: "replay", WallMS: 2000, Allocs: 1e6})
	var out strings.Builder
	regressions, err := compare(&out, ref, cur, limits{maxAllocFrac: 0.10, minAllocs: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("reference-only entry counted as regression: %d\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "flood-16") || !strings.Contains(out.String(), "only in reference") {
		t.Fatalf("reference-only entry not logged:\n%s", out.String())
	}
}

// TestSharedEntryRegressionsStillFail: the skip paths must not eat
// real allocation regressions on shared names, and a wall-clock delta —
// however large — is reported, never counted.
func TestSharedEntryRegressionsStillFail(t *testing.T) {
	ref := traj(1, perf.Entry{Name: "replay", WallMS: 2000, Allocs: 1e6}, perf.Entry{Name: "serve", WallMS: 2000, Allocs: 1e6})
	cur := traj(1, perf.Entry{Name: "replay", WallMS: 3000, Allocs: 2e6}, perf.Entry{Name: "serve", WallMS: 9000, Allocs: 1e6})
	var out strings.Builder
	regressions, err := compare(&out, ref, cur, limits{maxAllocFrac: 0.10, minAllocs: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("want 1 regression (replay's allocations), got %d\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "(+350.0%)") || strings.Count(out.String(), "REGRESSION") != 1 {
		t.Fatalf("wall deltas must be printed and must not flag:\n%s", out.String())
	}
}

// TestFloorsExemptSmallEntries: reference entries under the alloc
// floor never flag, whatever the delta.
func TestFloorsExemptSmallEntries(t *testing.T) {
	ref := traj(1, perf.Entry{Name: "tiny", WallMS: 10, Allocs: 100})
	cur := traj(1, perf.Entry{Name: "tiny", WallMS: 1000, Allocs: 10000})
	var out strings.Builder
	regressions, err := compare(&out, ref, cur, limits{maxAllocFrac: 0.10, minAllocs: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("sub-floor entry flagged: %d\n%s", regressions, out.String())
	}
}

// TestScaleMismatchIsAnError: trajectories at different scales cannot
// be compared at all.
func TestScaleMismatchIsAnError(t *testing.T) {
	ref := traj(1, perf.Entry{Name: "replay", WallMS: 2000, Allocs: 1e6})
	cur := traj(0.1, perf.Entry{Name: "replay", WallMS: 200, Allocs: 1e5})
	var out strings.Builder
	if _, err := compare(&out, ref, cur, limits{}); err == nil {
		t.Fatal("scale mismatch accepted")
	}
}
