package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/perf"
)

// TestRunExitCodes drives run at the argv level: 2 for a command line
// it refuses (with the reason on stderr and nothing on stdout), 1 for
// a run that fails, 0 for help.
func TestRunExitCodes(t *testing.T) {
	for _, row := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"-h", 0, "-stream-profile"},
		// flags this command no longer defines
		{"-requests 100", 2, "flag provided but not defined"},
		{"-write-ratio 0.5", 2, "flag provided but not defined"},
		{"-batch 16", 2, "flag provided but not defined"},
		{"-submit-batch 1", 2, "flag provided but not defined"},
		{"-bgdedup -bgdedup-rate 1000", 2, "flag provided but not defined"},
		{"-bgdedup -bgdedup-expect-reclaim", 2, "flag provided but not defined"},
		{"-shards 2 -globalfp -globalfp-queue 64", 2, "flag provided but not defined"},
		{"-shards 2 -globalfp -globalfp-rate 8", 2, "flag provided but not defined"},
		{"-shards 2 -globalfp -globalfp-expect-remaps", 2, "flag provided but not defined"},
		// every refusal this command made before it had a Spec
		{"extra", 2, "unexpected argument"},
		{"-policy drop", 2, "-policy"},
		{"-scheme ZFS", 2, "-scheme"},
		{"-chunking rabin", 2, "-chunking"},
		{"-chunking gear -scheme Native", 2, "-chunking gear needs a deduplicating scheme"},
		{"-trace-sample -1", 2, "-trace-sample"},
		{"-shards 0", 2, "-shards"},
		{"-deadline-us -5", 2, "-deadline-us"},
		{"-chaos meteor -rate 100", 2, "unknown scenario"},
		{"-chaos full -rate 100 -chunking gear", 2, "incompatible with -chaos"},
		{"-chaos full", 2, "-chaos requires -rate > 0"},
		{"-chaos shardcrash -rate 100", 2, "-shards >= 2"},
		{"-crash-shard 0", 2, "require a shard-outage scenario"},
		{"-chaos shardcrash -rate 100 -shards 2 -crash-shard 2", 2, "out of range"},
		{"-chaos shardcrash -rate 100 -shards 2 -crash-at-us -1", 2, "-crash-at-us"},
		{"-chaos shardcrash -rate 100 -shards 2 -crash-at-us 9 -recover-at-us 9", 2, "must be after"},
		{"-chaos shardcrash -rate 100 -shards 2 -scale 0.01 -crash-at-us 999999999999", 2, "not after the crash"},
		{"-globalfp", 2, "-globalfp needs 2-64 shards"},
		{"-globalfp -shards 65", 2, "-globalfp needs 2-64 shards"},
		{"-bgdedup -scheme iDedup", 2, "-bgdedup supports schemes"},
		{"-streams -scheme Full-Dedupe", 2, "-streams supports schemes"},
		{"-streams -stream-profile benign", 2, "-stream-profile"},
		{"-stream-profile scan", 2, "requires -streams"},
		{"-streams -trace mail", 2, "stream-tagged"},
		{"-trace fileserver", 2, "unknown -trace"},
		// outside input that used to panic, pass quietly, or exit 1
		{"-clients -1", 2, "-clients"},
		{"-queue -1", 2, "-queue"},
		{"-scale 0", 2, "-scale"},
		{"-scale -1", 2, "-scale"},
		// a run that serves and then cannot deliver
		{"-scale 0.01 -metrics-out " + filepath.Join(t.TempDir(), "no-such-dir", "m.json"), 1, "no such file"},
	} {
		var stdout, stderr strings.Builder
		code := run(strings.Fields(row.args), &stdout, &stderr)
		if code != row.code || !strings.Contains(stderr.String(), row.stderr) {
			t.Errorf("podload %s: exit %d, want %d with %q on stderr; got:\n%s", row.args, code, row.code, row.stderr, stderr.String())
		}
		if code == 2 && stdout.Len() > 0 {
			t.Errorf("podload %s: refused, yet wrote to stdout:\n%s", row.args, stdout.String())
		}
	}
}

// TestRunHappyPath: one sharded run end to end through the command
// line — the report on stdout, the drive span merged into the
// trajectory file twice, the CPU profile closed.
func TestRunHappyPath(t *testing.T) {
	tmp := t.TempDir()
	traj, prof := filepath.Join(tmp, "bench.json"), filepath.Join(tmp, "cpu.prof")
	args := "-trace mixed -scale 0.01 -shards 2 -route-chunks 256 -rate 200 -bgdedup -bench-json " + traj + " -cpuprofile " + prof
	for _, label := range []string{"first", "second"} {
		var stdout, stderr strings.Builder
		if code := run(strings.Fields(args+" -bench-label "+label), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d:\n%s", code, stderr.String())
		}
		for _, line := range []string{
			"podload: trace=mixed scheme=POD shards=2 clients=2 rate=200/s requests=5470 queue=128 batch=32 policy=block\n",
			"completed 5470 of 5470 requests (0 shed) in ",
			"simulated: window 27.356s, aggregate throughput 200.0 req/s\n",
			"\nbgdedup: steps=", "\nshard 1: queue-wait p50 ",
		} {
			if !strings.Contains(stdout.String(), line) {
				t.Errorf("stdout lacks %q:\n%s", line, stdout.String())
			}
		}
	}
	got, err := perf.ReadJSON(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Entries[0].Name != "first" || got.Entries[1].Name != "second" || got.Scale != 0.01 {
		t.Fatalf("trajectory %+v, want the two runs merged in order at scale 0.01", got)
	}
	if e := got.Entries[1]; e.Allocs == 0 || e.Extra["completed"] != 5470 || e.Extra["shards"] != 2 || e.Extra["p99_sojourn_us"] == 0 {
		t.Fatalf("drive entry %+v lacks its span or its figures", e)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile not written: %v", err)
	}
}

// TestReadmeNamesTheFlags keeps README.md and the flag set from
// drifting: every flag podload defines is mentioned there, and every
// flag on a podload command line there is one podload defines.
func TestReadmeNamesTheFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(readme), "\\\n", " ") // join continued command lines
	var o options
	fs := o.flagSet(io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("[`\\s]-" + f.Name + "[`\\s]").MatchString(text) {
			t.Errorf("README.md does not mention podload's -%s", f.Name)
		}
	})
	for _, cmd := range regexp.MustCompile(`(?m)^go run (?:-race )?\./cmd/podload .*$`).FindAllString(text, -1) {
		for _, name := range regexp.MustCompile(`\s-([a-z][a-z-]*)`).FindAllStringSubmatch(strings.TrimPrefix(cmd, "go run -race"), -1) {
			if fs.Lookup(name[1]) == nil {
				t.Errorf("README.md runs podload with -%s, which it does not define:\n%s", name[1], cmd)
			}
		}
	}
}
