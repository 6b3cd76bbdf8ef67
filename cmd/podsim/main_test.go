package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRefusesBadFlags drives run at the argv level: each platform
// flag podsim once handed to a constructor that panics on it, or ran
// with silently, is refused with exit 2, one "podsim: -flag …" line on
// stderr and nothing on stdout, before any trace is built.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, row := range []struct {
		args, stderr string
	}{
		{"-disks 2", "podsim: -disks"},
		{"-disks 0", "podsim: -disks"},
		{"-stripe 2", "podsim: -stripe"},
		{"-stripe 0", "podsim: -stripe"},
		{"-stripe 6", "podsim: -stripe"},
		{"-indexfrac 1", "podsim: -indexfrac"},
		{"-indexfrac 0", "podsim: -indexfrac"},
		{"-threshold -1", "podsim: -threshold"},
		{"-idedup-threshold -1", "podsim: -idedup-threshold"},
		{"-scale 0", "podsim: -scale"},
		{"-scale NaN", "podsim: -scale"},
		{"-memory -5", "podsim: -memory"},
		{"-diskblocks 1", "podsim: -diskblocks"},
		{"-diskblocks 4611686018427387920", "podsim: -diskblocks"}, // 4 data disks' worth wraps to 64 blocks
		{"-scheme ZFS", "podsim: -scheme"},
		{"-chunking rabin", "podsim: -chunking"},
		{"-chunking gear -scheme Native", "podsim: -chunking gear needs a deduplicating scheme"},
		{"-trace fileserver", "podsim: -trace"},
		{"extra", "podsim: unexpected argument"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-trace", "web-vm", "-scale", "0.01"}, strings.Fields(row.args)...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", row.args, code, stderr.String())
		}
		if got := stderr.String(); !strings.HasPrefix(got, row.stderr) || strings.Count(got, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one line starting %q", row.args, got, row.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: refused, yet printed %q", row.args, stdout.String())
		}
	}
}

// TestRunRefusesAnArrayPastTheContentBound: an array holding more than
// trace.LBALimit data blocks is refused with exit 2 and one "podsim:
// -disks …" line, whether -diskblocks sizes its spindles or the trace
// does (web-vm's are 2^18 blocks, so 1 100 disks hold ~2^28.1).
func TestRunRefusesAnArrayPastTheContentBound(t *testing.T) {
	for _, args := range []string{"-diskblocks 268435456", "-disks 1100"} {
		var stdout, stderr bytes.Buffer
		argv := append([]string{"-trace", "web-vm", "-scale", "0.01"}, strings.Fields(args)...)
		if code := run(argv, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if got := stderr.String(); !strings.HasPrefix(got, "podsim: -disks") || !strings.Contains(got, "addresses at most") || strings.Count(got, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one line naming -disks and the bound", args, got)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: refused, yet printed %q", args, stdout.String())
		}
	}
}

// TestRunReplays: the accepted command line replays the trace and
// prints its report.
func TestRunReplays(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", "web-vm", "-scale", "0.01", "-scheme", "POD"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.HasPrefix(out, "POD on web-vm") || !strings.Contains(out, "Mean response time") {
		t.Fatalf("report:\n%s", out)
	}
}

// TestRunReportsAFullArray: a trace that outgrows an explicit
// -diskblocks ends the replay at the first write the array cannot
// place, with exit 1 and one line naming it, and no report.
func TestRunReportsAFullArray(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", "web-vm", "-scale", "0.01", "-diskblocks", "100"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if got := stderr.String(); !strings.HasPrefix(got, "podsim: ") || !strings.Contains(got, "physical space exhausted") || strings.Count(got, "\n") != 1 {
		t.Fatalf("stderr %q, want one podsim line naming the exhausted space", got)
	}
	if stdout.Len() != 0 {
		t.Fatalf("a replay that did not complete printed %q", stdout.String())
	}
}
