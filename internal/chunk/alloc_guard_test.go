// Alloc guards for the per-write hot paths. External test package so
// the CDC splitter (which imports chunk) can be covered here too.
package chunk_test

import (
	"testing"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
)

// TestSplitFingerprintHotPathAllocFree guards the per-write chunking
// path: splitting a request into a reused scratch slice, fingerprints
// included, must not allocate, so an alloc regression here
// fails go test instead of only drifting BENCH_replay.json.
func TestSplitFingerprintHotPathAllocFree(t *testing.T) {
	ids := make([]chunk.ContentID, 8)
	for i := range ids {
		ids[i] = chunk.ContentID(i*131 + 7)
	}
	scratch := make([]chunk.Chunk, 0, len(ids))
	avg := testing.AllocsPerRun(200, func() {
		scratch = chunk.SplitInto(scratch[:0], ids, chunk.SyntheticFingerprinter{}, false)
	})
	if avg != 0 {
		t.Fatalf("SplitInto: %.2f allocs/op, want 0", avg)
	}
}

// TestCDCSplitHotPathAllocFree guards the content-defined sibling of
// the same path: once the splitter's scratch (materialize buffer,
// landmark bitmap, cut list) has grown to its high-water mark, a
// steady-state Split — materialization, sweep, cuts, content hash,
// fingerprint — must not allocate either, on both the stream and the
// plain request shape.
func TestCDCSplitHotPathAllocFree(t *testing.T) {
	for _, algo := range []cdc.Algo{cdc.Gear, cdc.SeqCDC} {
		s := cdc.NewSplitter(cdc.Params{Algo: algo})
		stream := make([]chunk.ContentID, 32)
		for i := range stream {
			stream[i] = cdc.EncodeEdit(2, 3, uint32(40+i))
		}
		plain := make([]chunk.ContentID, 32)
		for i := range plain {
			plain[i] = chunk.ContentID(i*977 + 5)
		}
		dst := make([]chunk.Chunk, 0, s.Params().MaxChunksPerSlots(len(stream)))
		dst, _ = s.Split(dst[:0], stream)
		dst, _ = s.Split(dst[:0], plain)
		for name, ids := range map[string][]chunk.ContentID{"stream": stream, "plain": plain} {
			ids := ids
			if avg := testing.AllocsPerRun(100, func() {
				dst, _ = s.Split(dst[:0], ids)
			}); avg != 0 {
				t.Fatalf("%v %s split: %.2f allocs/op, want 0", algo, name, avg)
			}
		}
	}
}
