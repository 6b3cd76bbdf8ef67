package server

import (
	"sync"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

func selectDedupeFactory(prof workload.Profile) func(int) engine.Engine {
	return func(int) engine.Engine {
		return experiments.NewEngine(experiments.SelectDedupe, experiments.BuildConfig(prof, testScale))
	}
}

// writeAt Do()s one single-chunk write and returns once acknowledged.
func writeAt(t *testing.T, srv *Server, tm int64, lba uint64, id chunk.ContentID) {
	t.Helper()
	if _, err := srv.Do(&Request{Time: tm, Op: trace.Write, LBA: lba, Content: []chunk.ContentID{id}}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAfterGracefulDrain checks the clean half of the shutdown
// story: every write acknowledged before Close survives a crash and
// per-shard NVRAM recovery with its content intact.
func TestRecoverAfterGracefulDrain(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{Shards: 4, NewEngine: selectDedupeFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}

	// concurrent writers over disjoint LBA stripes (shards get mixed
	// traffic because consecutive granules round-robin)
	const writers, perWriter = 4, 200
	model := make([]map[uint64]chunk.ContentID, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		model[w] = make(map[uint64]chunk.ContentID)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lba := uint64(w)*4*DefaultGranChunks + uint64(i)*17%(4*DefaultGranChunks)
				id := chunk.ContentID(w*1000000 + i + 1)
				if _, err := srv.Do(&Request{Time: int64(i) * 100, Op: trace.Write, LBA: lba, Content: []chunk.ContentID{id}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				model[w][lba] = id
			}
		}(w)
	}
	wg.Wait()
	srv.Close()

	if _, err := srv.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	for w := range model {
		for lba, want := range model[w] {
			got, ok := srv.ReadContent(lba)
			if !ok || got != uint64(want) {
				t.Fatalf("lba %d after recovery: %d,%v want %d", lba, got, ok, want)
			}
		}
	}
}

// TestCrashMidServeTornJournal injects an NVRAM crash on one shard
// while the server is actively serving: the next journal record tears
// mid-write and everything after it is dropped. After the drain and
// recovery, all writes acknowledged before the fault must survive on
// every shard, the unaffected shard keeps its later writes too, and
// post-fault writes on the crashed shard must NOT have become durable.
func TestCrashMidServeTornJournal(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{Shards: 2, NewEngine: selectDedupeFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	// granule 0 → shard 0, granule 1 → shard 1
	shard0, shard1 := uint64(0), uint64(DefaultGranChunks)
	if srv.Shard(shard0) != 0 || srv.Shard(shard1) != 1 {
		t.Fatalf("granule routing changed: %d,%d", srv.Shard(shard0), srv.Shard(shard1))
	}

	// phase 1: acknowledged on both shards before the fault
	preCrash := map[uint64]chunk.ContentID{}
	for i := uint64(0); i < 50; i++ {
		writeAt(t, srv, int64(i*100), shard0+i, chunk.ContentID(i+1))
		writeAt(t, srv, int64(i*100), shard1+i, chunk.ContentID(1000+i+1))
		preCrash[shard0+i] = chunk.ContentID(i + 1)
		preCrash[shard1+i] = chunk.ContentID(1000 + i + 1)
	}

	// power fails on shard 0's journal: the record of its next write
	// tears after 10 of its 20 bytes
	srv.shards[0].mu.Lock()
	srv.shards[0].base.NVRAM().ArmCrash(10)
	srv.shards[0].mu.Unlock()

	// phase 2: keep serving through the (not-yet-noticed) fault from
	// several goroutines, fresh LBAs only
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				base := shard0 + 500
				if w%2 == 1 {
					base = shard1 + 500
				}
				lba := base + uint64(w/2)*100 + i
				if _, err := srv.Do(&Request{Time: 10000 + int64(i)*100, Op: trace.Write, LBA: lba,
					Content: []chunk.ContentID{chunk.ContentID(5000 + uint64(w)*1000 + i)}}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	srv.Close()

	applied, err := srv.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("no journal records replayed")
	}

	// pre-fault acknowledged state survives on both shards
	for lba, want := range preCrash {
		got, ok := srv.ReadContent(lba)
		if !ok || got != uint64(want) {
			t.Fatalf("pre-crash lba %d after recovery: %d,%v want %d", lba, got, ok, want)
		}
	}
	// shard 1 never crashed: its post-fault writes are durable
	for i := uint64(0); i < 50; i++ {
		if _, ok := srv.ReadContent(shard1 + 500 + i); !ok {
			t.Fatalf("healthy shard lost post-fault write at lba %d", shard1+500+i)
		}
	}
	// shard 0's post-fault writes were journaled into a dead device:
	// none of them may survive recovery
	for i := uint64(0); i < 50; i++ {
		if _, ok := srv.ReadContent(shard0 + 500 + i); ok {
			t.Fatalf("torn write at lba %d survived the crash", shard0+500+i)
		}
	}

	// the recovered server substrate is restartable: a fresh server
	// over the recovered engines keeps serving (recovery harness
	// round-trip, mirroring internal/core's TestEngineUsableAfterRecovery)
	if n, err := srv.CrashAndRecover(); err != nil || n == 0 {
		t.Fatalf("second recovery: %d, %v", n, err)
	}
}

// TestCrashAndRecoverRequiresClose documents the quiescence contract.
func TestCrashAndRecoverRequiresClose(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{Shards: 1, NewEngine: selectDedupeFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CrashAndRecover(); err == nil {
		t.Fatal("recovery allowed while serving")
	}
	srv.Close()
}
