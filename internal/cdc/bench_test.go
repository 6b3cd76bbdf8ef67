package cdc

import (
	"fmt"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
)

// benchSplit drives one splitter over windows in rotation, reports
// bytes-of-content-chunked per second via b.SetBytes, and fails unless
// the steady-state split allocates nothing.
func benchSplit(b *testing.B, algo Algo, windows [][]chunk.ContentID) {
	s := NewSplitter(Params{Algo: algo})
	blocks := len(windows[0])
	dst := make([]chunk.Chunk, 0, s.Params().MaxChunksPerSlots(blocks))
	for _, w := range windows { // warm scratch to its high-water mark
		dst, _ = s.Split(dst[:0], w)
	}
	b.SetBytes(int64(blocks) * slotBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = s.Split(dst[:0], windows[i%len(windows)])
	}
	b.StopTimer()
	if avg := testing.AllocsPerRun(10, func() {
		dst, _ = s.Split(dst[:0], windows[0])
	}); avg != 0 {
		b.Fatalf("%v split: %.2f allocs/op, want 0", algo, avg)
	}
}

// rotatingWindows is one 256 KiB window of eight generations in turn:
// no request overlaps the one before it, so every split materializes
// and sweeps its whole buffer (and the materializer cannot serve a
// single hot window).
func rotatingWindows() [][]chunk.ContentID {
	windows := make([][]chunk.ContentID, 8)
	for g := range windows {
		windows[g] = editWindow(1, uint8(g), 128, 64)
	}
	return windows
}

// sequentialWindows is one stream written in consecutive 128 KiB
// requests — the shape every snapshot write has, and the one the
// carried window serves: each request materializes and sweeps only its
// own new bytes.
func sequentialWindows() [][]chunk.ContentID {
	windows := make([][]chunk.ContentID, 64)
	for r := range windows {
		windows[r] = editWindow(1, 2, r*32, 32)
	}
	return windows
}

// BenchmarkGearChunk measures the full Gear split path per request:
// materialize, landmark sweep, cut derivation, hash, fingerprint.
func BenchmarkGearChunk(b *testing.B) { benchSplit(b, Gear, rotatingWindows()) }

// BenchmarkSeqCDCChunk is the same for the sequence-based chunker.
func BenchmarkSeqCDCChunk(b *testing.B) { benchSplit(b, SeqCDC, rotatingWindows()) }

// BenchmarkGearStream and BenchmarkSeqCDCStream are the same split
// paths down one sequential stream.
func BenchmarkGearStream(b *testing.B)   { benchSplit(b, Gear, sequentialWindows()) }
func BenchmarkSeqCDCStream(b *testing.B) { benchSplit(b, SeqCDC, sequentialWindows()) }

// BenchmarkMaterializeStream isolates the byte expansion.
func BenchmarkMaterializeStream(b *testing.B) {
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaterializeStream(1, uint8(i&7), 4096, buf)
	}
}

// benchMarks times a landmark sweep alone over one request-sized
// buffer (window + lookback + lookahead at the default bounds), so the
// kernel and the whole split are separately visible.
func benchMarks(b *testing.B, sweep func(buf []byte, marks []uint64)) {
	p := Params{}.WithDefaults()
	buf := make([]byte, 32*int(slotBytes)+int(p.lookback())+p.maxBytes)
	MaterializeStream(1, 3, 4096, buf)
	marks := make([]uint64, (len(buf)+63)/64)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(buf, marks)
	}
}

// BenchmarkSeqMarks isolates the sequence-based landmark sweep.
func BenchmarkSeqMarks(b *testing.B) {
	benchMarks(b, func(buf []byte, marks []uint64) { seqMarks(buf, 6, marks) })
}

// BenchmarkGearMarks isolates the Gear landmark sweep.
func BenchmarkGearMarks(b *testing.B) {
	benchMarks(b, func(buf []byte, marks []uint64) { gearMarks(buf, 11, marks) })
}

// BenchmarkBytesHash isolates the content hash at a small, the mean
// and the largest chunk size of the default bounds.
func BenchmarkBytesHash(b *testing.B) {
	for _, n := range []int{2048, 6400, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			buf := make([]byte, n)
			testFill(buf, uint64(n))
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hashSink += bytesHash(buf)
			}
			b.StopTimer()
			if avg := testing.AllocsPerRun(10, func() { hashSink += bytesHash(buf) }); avg != 0 {
				b.Fatalf("bytesHash: %.2f allocs/op, want 0", avg)
			}
		})
	}
}

var hashSink uint64 // keeps the compiler from dropping the hash
