package replay

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/pod-dedup/pod/internal/baseline"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

func newEngine() engine.Engine {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(1 << 16))
	}
	return core.NewPOD(engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 1 << 20,
	})
}

func smallTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "unit"}
	var tm sim.Time
	for i := 0; i < n; i++ {
		tm = tm.Add(1000)
		if i%3 == 2 {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: tm, Op: trace.Read, LBA: uint64((i - 1) * 4), N: 2,
			})
			continue
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Time: tm, Op: trace.Write, LBA: uint64(i * 4), N: 2,
			Content: []chunk.ContentID{chunk.ContentID(i), chunk.ContentID(i + 1)},
		})
	}
	return tr
}

// fixed is the TraceFn of a trace already in hand.
func fixed(tr *trace.Trace, warmup int) func() (*trace.Trace, int) {
	return func() (*trace.Trace, int) { return tr, warmup }
}

func TestRunMeasuresOnlyPostWarmup(t *testing.T) {
	tr := smallTrace(30)
	res := Run(newEngine(), tr, 10)
	st := res.Stats
	if st.Reads+st.Writes != 20 {
		t.Fatalf("measured %d requests, want 20", st.Reads+st.Writes)
	}
	if res.MeanRT <= 0 || res.MeanWriteRT <= 0 {
		t.Fatal("means must be positive")
	}
}

func TestRunZeroWarmup(t *testing.T) {
	tr := smallTrace(9)
	res := Run(newEngine(), tr, 0)
	if res.Stats.Reads+res.Stats.Writes != 9 {
		t.Fatal("all requests must be measured with zero warmup")
	}
}

func TestRunPanicsOnUnorderedTrace(t *testing.T) {
	tr := smallTrace(3)
	tr.Requests[2].Time = 0 // violate ordering
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unordered trace")
		}
	}()
	Run(newEngine(), tr, 0)
}

func TestRunAllParallelOrderPreserved(t *testing.T) {
	tr := smallTrace(30)
	var jobs []Job
	for i := 0; i < 6; i++ {
		i := i
		factory := func() engine.Engine {
			if i%2 == 0 {
				return newEngine()
			}
			disks := make([]*disk.Disk, 4)
			for j := range disks {
				disks[j] = disk.New(disk.DefaultParams(1 << 16))
			}
			return baseline.NewNative(engine.Config{
				Array:       raid.New(raid.RAID5, disks, 16),
				MemoryBytes: 1 << 20,
			})
		}
		jobs = append(jobs, Job{Key: "k", Factory: factory, TraceFn: fixed(tr, 0)})
	}
	results := RunAll(jobs, 3)
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		want := "POD"
		if i%2 == 1 {
			want = "Native"
		}
		if r.Engine != want {
			t.Fatalf("result %d = %s, want %s (order not preserved)", i, r.Engine, want)
		}
	}
}

func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	tr := smallTrace(30)
	mk := func(workers int) []*Result {
		var jobs []Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, Job{Factory: newEngine, TraceFn: fixed(tr, 5)})
		}
		return RunAll(jobs, workers)
	}
	a := mk(1)
	for _, workers := range []int{0, 4} { // ≤ 0 clamps to one worker
		b := mk(workers)
		for i := range a {
			if a[i].MeanRT != b[i].MeanRT || a[i].UsedBlocks != b[i].UsedBlocks {
				t.Fatalf("job %d differs between one worker and %d", i, workers)
			}
		}
	}
}

func TestRunAllRecoversPanickingJob(t *testing.T) {
	tr := smallTrace(12)
	jobs := []Job{
		{Key: "good-before", Factory: newEngine, TraceFn: fixed(tr, 2)},
		{Key: "bad", Factory: func() engine.Engine { panic("injected factory failure") }, TraceFn: fixed(tr, 0)},
		{Key: "good-after", Factory: newEngine, TraceFn: fixed(tr, 2)},
	}
	results := RunAll(jobs, 1) // one worker: all three share a goroutine
	if results[1].Err == nil {
		t.Fatal("panicking job must surface an error result")
	}
	if !strings.Contains(results[1].Err.Error(), "injected factory failure") {
		t.Fatalf("error must carry the panic value, got: %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil || results[i].Err != nil {
			t.Fatalf("job %d must complete despite a sibling panic", i)
		}
		if results[i].Stats.Reads+results[i].Stats.Writes == 0 {
			t.Fatalf("job %d measured nothing", i)
		}
	}
}

func TestRunAllLazyTraceFn(t *testing.T) {
	var calls int32
	fn := func() (*trace.Trace, int) {
		atomic.AddInt32(&calls, 1)
		return smallTrace(12), 2
	}
	jobs := []Job{
		{Key: "lazy-a", Factory: newEngine, TraceFn: fn},
		{Key: "lazy-b", Factory: newEngine, TraceFn: fn},
	}
	results := RunAll(jobs, 2)
	if n := atomic.LoadInt32(&calls); n != 2 {
		t.Fatalf("TraceFn called %d times, want once per job", n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if got := r.Stats.Reads + r.Stats.Writes; got != 10 {
			t.Fatalf("job %d measured %d requests, want 10 (12 minus warmup 2 from TraceFn)", i, got)
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	if got := RunAll(nil, 4); len(got) != 0 {
		t.Fatal("empty jobs must produce empty results")
	}
}

// BenchmarkReplayHot drives the full write/read hot path — split,
// fingerprint, index lookup, allocation, Map-table update, RAID model —
// through a POD engine on a reusable synthetic trace. Run with
// -benchmem; this is the end-to-end number the allocation work targets.
func BenchmarkReplayHot(b *testing.B) {
	const reqs = 4096
	tr := &trace.Trace{Name: "bench"}
	var tm sim.Time
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < reqs; i++ {
		tm = tm.Add(500)
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if i%4 == 3 {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: tm, Op: trace.Read, LBA: (rng % 8192) * 8, N: 8,
			})
			continue
		}
		ids := make([]chunk.ContentID, 8)
		for j := range ids {
			// ~50% duplicate content to exercise both dedupe and fresh-write paths
			ids[j] = chunk.ContentID((rng + uint64(j)) % (reqs * 4))
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Time: tm, Op: trace.Write, LBA: (rng % 8192) * 8, N: 8, Content: ids,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(newEngine(), tr, 0)
	}
}

func TestRunObservedCallback(t *testing.T) {
	tr := smallTrace(12)
	var seen int
	var lastRT int64
	res := RunObserved(newEngine(), tr, 0, func(i int, r *trace.Request, rt int64) {
		if i != seen {
			t.Fatalf("indices out of order: %d vs %d", i, seen)
		}
		if rt <= 0 {
			t.Fatalf("request %d: non-positive rt %d", i, rt)
		}
		seen++
		lastRT = rt
	})
	if seen != 12 || res == nil || lastRT == 0 {
		t.Fatalf("observed %d requests", seen)
	}
}
