package experiments

import (
	"flag"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/replay"
)

const freshProcessTest = "TestGoroutinesInFreshProcess"

// TestNoGoroutineOutlivesItsCall re-runs this test binary with
// GOMAXPROCS=2 so that TestGoroutinesInFreshProcess counts goroutines
// in a process nothing else has run in: a goroutine an earlier test
// left behind, or a lazily started pool another test already paid
// for, would otherwise hide in the baseline.
func TestNoGoroutineOutlivesItsCall(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^"+freshProcessTest+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: "+freshProcessTest) {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
}

// TestGoroutinesInFreshProcess splits plain IDs through a gear
// splitter, runs a replay batch, and runs one experiment through an Env
// it never closes; afterwards the goroutine count must be back where
// it started. It runs only as the child TestNoGoroutineOutlivesItsCall
// starts.
func TestGoroutinesInFreshProcess(t *testing.T) {
	if flag.Lookup("test.run").Value.String() != "^"+freshProcessTest+"$" {
		t.Skip("runs in the fresh process TestNoGoroutineOutlivesItsCall starts")
	}
	before := runtime.NumGoroutine()

	ids := make([]chunk.ContentID, 16)
	for i := range ids {
		ids[i] = chunk.ContentID(i*7 + 1)
	}
	cdc.NewSplitter(cdc.Params{Algo: cdc.Gear}).Split(nil, ids)

	pack := corpusPack("web-vm", 0.02)
	job := replay.Job{
		Factory: func() engine.Engine { return NewEngine(POD, BuildConfig(pack.prof, pack.scale)) },
		TraceFn: pack.generate,
	}
	for _, r := range replay.RunAll([]replay.Job{job, job}, 2) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	x, err := FindExperiment("fig11")
	if err != nil {
		t.Fatal(err)
	}
	x.Print(NewEnv(0.02, 2), io.Discard)

	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after != before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Fatalf("%d goroutines before, %d after: something started one that outlived its call", before, after)
	}
}
