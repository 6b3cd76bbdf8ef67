package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/trace"
)

// TestSubmitBatchEmpty: an empty (or nil) batch is a no-op, not an
// error and not a queue entry — nothing reaches any shard.
func TestSubmitBatchEmpty(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SubmitBatch(nil); err != nil {
		t.Fatalf("nil batch: %v", err)
	}
	if err := srv.SubmitBatch([]Request{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Completed; got != 0 {
		t.Fatalf("empty batches completed %d requests", got)
	}
}

// TestSubmitBatchSingle: a one-request batch is served — one
// completion, content readable back.
func TestSubmitBatchSingle(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SubmitBatch([]Request{
		{Op: trace.Write, LBA: 0, Content: []chunk.ContentID{42}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Completed; got != 1 {
		t.Fatalf("single-request batch completed %d requests, want 1", got)
	}
	if got, ok := srv.ReadContent(0); !ok || got != 42 {
		t.Fatalf("read back %d,%v want 42", got, ok)
	}
}

// TestSubmitBatchDuringCloseDrain races concurrent SubmitBatch callers
// against Close: every call must either be accepted in full or refused
// with the typed ErrClosed — no panic (a batch send must never hit a
// closed shard channel), no partially lost batch. After the drain,
// completions must account for exactly the accepted requests: a batch
// whose SubmitBatch returned nil was enqueued whole and Close's
// graceful drain serves everything queued.
func TestSubmitBatchDuringCloseDrain(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 4, GranChunks: 1, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter, bsize = 8, 64, 4
	var accepted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				batch := make([]Request, bsize)
				for k := range batch {
					lba := uint64(w*perWriter*bsize + i*bsize + k)
					batch[k] = Request{Op: trace.Write, LBA: lba,
						Content: []chunk.ContentID{chunk.ContentID(lba + 1)}}
				}
				err := srv.SubmitBatch(batch)
				switch {
				case err == nil:
					accepted.Add(bsize)
				case errors.Is(err, ErrClosed):
					return
				default:
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	close(start)
	// Close while the writers are mid-flight: the first few batches
	// race the drain, the rest see ErrClosed.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got, want := srv.Stats().Completed, accepted.Load(); got != want {
		t.Fatalf("drain completed %d requests, accepted %d — acks lost or invented", got, want)
	}
}
