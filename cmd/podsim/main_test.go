package main

import (
	"bytes"
	"strings"
	"testing"

	pod "github.com/pod-dedup/pod"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/replay"
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

// TestPlatformRefusalsAgree feeds the same bad platform shapes to
// pod.New and to podsim: both refuse each through the one rule
// (experiments.Platform.Admit), so podsim's line is the library's error
// under the flag's dash.
func TestPlatformRefusalsAgree(t *testing.T) {
	for _, c := range []struct {
		cfg  pod.Config
		args string
	}{
		{pod.Config{Disks: 2}, "-disks 2"},
		{pod.Config{Disks: -1}, "-disks -1"},
		{pod.Config{StripeUnitKB: 6}, "-stripe 6"},
		{pod.Config{StripeUnitKB: -4}, "-stripe -4"},
		{pod.Config{MemoryMB: -1}, "-memory -1"},
		{pod.Config{DiskBlocks: 8}, "-diskblocks 8"},                                               // no index zone
		{pod.Config{DiskBlocks: 1 << 28}, "-diskblocks 268435456"},                                 // the array past trace.LBALimit
		{pod.Config{Disks: 5, DiskBlocks: 1<<62 + 16}, "-disks 5 -diskblocks 4611686018427387920"}, // one disk past it; the product would wrap
	} {
		_, err := pod.New(c.cfg)
		if err == nil {
			t.Errorf("pod.New(%+v) accepted", c.cfg)
			continue
		}
		var stdout, stderr bytes.Buffer
		args := append([]string{"-trace", "web-vm", "-scale", "0.01"}, strings.Fields(c.args)...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", c.args, code)
		}
		if want := "podsim: -" + strings.TrimPrefix(err.Error(), "pod: ") + "\n"; stderr.String() != want {
			t.Errorf("%s: podsim says %q, pod.New %q", c.args, stderr.String(), err)
		}
	}
}

// TestBareRunIsThePodbenchCell: a built-in trace replays on the
// platform podbench gives it, so podsim without platform flags prints
// what the experiment's cell measured, row for row — writes removed,
// response times, read-cache hits, used blocks and the rest.
func TestBareRunIsThePodbenchCell(t *testing.T) {
	env := experiments.NewEnv(0.05, 1)
	env.Chunking()
	for _, c := range []struct {
		args string
		algo cdc.Algo
		cell *replay.Result
	}{
		// at 0.05 the cell's 256 KiB cache floor binds; podsim once
		// floored its own at 512 KiB
		{"-scheme POD -trace homes -scale 0.05", cdc.Fixed4K, env.Result(experiments.POD, "homes")},
		{"-scheme Select-Dedupe -trace shifted -chunking gear -scale 0.05", cdc.Gear, env.CellResult("chunking/gear")},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", c.args, code, stderr.String())
		}
		title, _, _ := strings.Cut(stdout.String(), "\n")
		if want := report(title, c.algo, c.cell).String() + "\n"; stdout.String() != want {
			t.Errorf("%s prints\n%s\nthe cell measured\n%s", c.args, stdout.String(), want)
		}
	}
}
