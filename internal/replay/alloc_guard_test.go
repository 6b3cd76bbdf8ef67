package replay

import (
	"reflect"
	"sync"
	"testing"

	"github.com/pod-dedup/pod/internal/baseline"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/trace"
)

func newNativeEngine() engine.Engine {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	return baseline.NewNative(engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 1 << 20,
	})
}

// TestEngineWriteHotPathAllocFree guards the steady-state write path:
// once an LBA's blocks, map entries, and index slots exist, rewriting
// it must not allocate. This is the per-request cost the pooled
// scratch buffers exist to eliminate; a regression fails go test
// instead of only drifting BENCH_replay.json.
func TestEngineWriteHotPathAllocFree(t *testing.T) {
	eng := newEngine()
	req := &trace.Request{
		Time: 1000, Op: trace.Write, LBA: 64, N: 4,
		Content: []chunk.ContentID{11, 12, 13, 14},
	}
	for i := 0; i < 64; i++ { // populate maps, settle amortized growth
		if _, err := eng.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := eng.Write(req); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state engine write: %.2f allocs/op, want 0", avg)
	}
}

// TestConcurrentPooledRepliesMatchSerial is the buffer-aliasing
// property test: two engines replaying concurrently draw scratch pages
// from the same process-wide pools, and every released buffer may be
// handed to the other engine mid-replay. If any engine retains a
// pooled buffer past its ownership window, the results diverge from
// the serial (cold-pool, no cross-engine reuse) reference — or the
// race detector fires; so do they if a released page comes back from
// its pool holding what its last owner wrote. Run under -race via make
// check.
func TestConcurrentPooledRepliesMatchSerial(t *testing.T) {
	tr := smallTrace(300)
	wantPOD := Run(newEngine(), tr, 0)
	wantNative := Run(newNativeEngine(), tr, 0)
	// released replays like the harness's jobs: the engine's pages go
	// back to the pools once its result is taken.
	released := func(e engine.Engine) *Result {
		res := Run(e, tr, 0)
		e.(Releaser).Release()
		return res
	}
	for round := 0; round < 4; round++ {
		got := make([]*Result, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); got[0] = released(newEngine()) }()
		go func() { defer wg.Done(); got[1] = released(newNativeEngine()) }()
		wg.Wait()
		if !reflect.DeepEqual(got[0], wantPOD) {
			t.Fatalf("round %d: pooled concurrent POD replay diverged from serial reference", round)
		}
		if !reflect.DeepEqual(got[1], wantNative) {
			t.Fatalf("round %d: pooled concurrent Native replay diverged from serial reference", round)
		}
	}
}
