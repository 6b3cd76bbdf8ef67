package cdc

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
)

func editWindow(obj uint32, gen uint8, idx0, n int) []chunk.ContentID {
	ids := make([]chunk.ContentID, n)
	for i := range ids {
		ids[i] = EncodeEdit(obj, gen, uint32(idx0+i))
	}
	return ids
}

// TestParseAlgo checks name parsing: canonical names, separator/case
// tolerance, and fail-fast rejection of unknown names.
func TestParseAlgo(t *testing.T) {
	good := map[string]Algo{
		"fixed4k": Fixed4K, "Fixed4K": Fixed4K, "fixed-4k": Fixed4K, "FIXED_4K": Fixed4K,
		"gear": Gear, "GEAR": Gear,
		"seqcdc": SeqCDC, "SeqCDC": SeqCDC, "seq-cdc": SeqCDC, "seq cdc": SeqCDC,
	}
	for in, want := range good {
		got, err := ParseAlgo(in)
		if err != nil || got != want {
			t.Fatalf("ParseAlgo(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "rabin", "fixed8k", "gears"} {
		if _, err := ParseAlgo(in); err == nil {
			t.Fatalf("ParseAlgo(%q) accepted, want error", in)
		}
	}
}

// TestSplitterStreamShiftedDedup is the tentpole property end-to-end:
// the same object across consecutive edited generations — every block
// ID unique, so fixed-4K dedup finds nothing — must yield mostly
// identical content-defined chunks, in both Gear and SeqCDC modes.
func TestSplitterStreamShiftedDedup(t *testing.T) {
	for _, algo := range []Algo{Gear, SeqCDC} {
		s := NewSplitter(Params{Algo: algo})
		const obj, blocks = 5, 96 // 384 KiB windows
		prev := map[chunk.ContentID]bool{}
		for gen := uint8(0); gen <= 3; gen++ {
			chs, bytes := s.Split(nil, editWindow(obj, gen, 0, blocks))
			if bytes < int64(blocks)*slotBytes {
				t.Fatalf("%v gen %d: emitted %d bytes < window %d", algo, gen, bytes, int64(blocks)*slotBytes)
			}
			shared := 0
			cur := map[chunk.ContentID]bool{}
			for _, c := range chs {
				cur[c.Content] = true
				if prev[c.Content] {
					shared++
				}
			}
			if gen > 0 {
				// all but a handful of chunks (edit head, window tail)
				// must be byte-identical to the prior generation
				if shared < len(chs)-6 {
					t.Fatalf("%v gen %d: only %d/%d chunks shared with gen %d", algo, gen, shared, len(chs), gen-1)
				}
			}
			prev = cur
		}
	}
}

// TestSplitterWindowDivisionInvariant: splitting one stream extent as
// a single request or as consecutive pieces of any size — down to one
// slot, where most windows hold no chunk start and emit nothing — must
// tile the same chunk sequence with no duplicates and no gaps: the
// ownership-emission contract (a chunk belongs to the window its start
// falls in) that makes request boundaries invisible to dedup and keeps
// fresh writes physically sequential. A carried splitter and a fresh
// one per piece must agree. Gear tiles identically at every piece
// size; SeqCDC's tiling is known to differ from the whole split in a
// few chunks at some sizes (DESIGN.md §14), so for it only the chunk
// count is pinned.
func TestSplitterWindowDivisionInvariant(t *testing.T) {
	const obj, gen, idx0, slots = 9, 2, 8, 256
	for _, algo := range []Algo{Gear, SeqCDC} {
		p := Params{Algo: algo}
		whole, wholeBytes := NewSplitter(p).Split(nil, editWindow(obj, gen, idx0, slots))
		for piece := 1; piece <= 16; piece++ {
			for _, carry := range []bool{true, false} {
				s := NewSplitter(p)
				var parts []chunk.Chunk
				var partBytes int64
				for at := 0; at < slots; at += piece {
					if !carry {
						s = NewSplitter(p)
					}
					var n int64
					parts, n = s.Split(parts, editWindow(obj, gen, idx0+at, min(piece, slots-at)))
					partBytes += n
				}
				if len(parts) != len(whole) {
					t.Fatalf("%v, %d-slot pieces (carried %v): %d chunks, whole split yields %d",
						algo, piece, carry, len(parts), len(whole))
				}
				if algo != Gear {
					continue
				}
				if partBytes != wholeBytes {
					t.Fatalf("%v, %d-slot pieces (carried %v): %d bytes emitted, whole split emits %d",
						algo, piece, carry, partBytes, wholeBytes)
				}
				for i := range whole {
					if parts[i].Content != whole[i].Content || parts[i].FP != whole[i].FP {
						t.Fatalf("%v, %d-slot pieces (carried %v): chunk %d differs from the whole split",
							algo, piece, carry, i)
					}
				}
			}
		}
	}
}

// TestSplitterPlainDeterministic: plain-ID requests (the existing
// trace families) split deterministically and cover the request bytes
// exactly.
func TestSplitterPlainDeterministic(t *testing.T) {
	s := NewSplitter(Params{Algo: Gear})
	ids := make([]chunk.ContentID, 16)
	for i := range ids {
		ids[i] = chunk.ContentID(i*1000 + 3)
	}
	a, abytes := s.Split(nil, ids)
	b, bbytes := s.Split(nil, ids)
	if abytes != int64(len(ids))*slotBytes || abytes != bbytes {
		t.Fatalf("plain split bytes %d/%d, want %d", abytes, bbytes, int64(len(ids))*slotBytes)
	}
	if len(a) != len(b) {
		t.Fatalf("plain split nondeterministic: %d vs %d chunks", len(a), len(b))
	}
	for i := range a {
		if a[i].Content != b[i].Content || a[i].FP != b[i].FP {
			t.Fatalf("plain split chunk %d differs between runs", i)
		}
	}
	if len(a) > (Params{}).WithDefaults().MaxChunksPerSlots(len(ids)) {
		t.Fatalf("%d chunks exceeds MaxChunksPerSlots bound", len(a))
	}
}

// TestSplitterChunkCountBound: no request may emit more chunks than
// MaxChunksPerSlots promises — workloads space LBA extents by it.
func TestSplitterChunkCountBound(t *testing.T) {
	for _, algo := range []Algo{Gear, SeqCDC} {
		s := NewSplitter(Params{Algo: algo})
		bound := s.Params().MaxChunksPerSlots(32)
		for gen := uint8(0); gen <= 7; gen++ {
			chs, _ := s.Split(nil, editWindow(77, gen, 64, 32))
			if len(chs) > bound {
				t.Fatalf("%v gen %d: %d chunks > bound %d", algo, gen, len(chs), bound)
			}
		}
	}
}

// TestSplitterSteadyStateAllocFree guards the batch design: once
// scratch has reached its high-water mark, neither split path may
// allocate.
func TestSplitterSteadyStateAllocFree(t *testing.T) {
	s := NewSplitter(Params{Algo: Gear})
	plain := make([]chunk.ContentID, 32)
	for i := range plain {
		plain[i] = chunk.ContentID(i * 7)
	}
	stream := editWindow(4, 3, 100, 32)
	dst := make([]chunk.Chunk, 0, s.Params().MaxChunksPerSlots(32))
	// warm scratch to high-water
	dst, _ = s.Split(dst[:0], plain)
	dst, _ = s.Split(dst[:0], stream)

	if avg := testing.AllocsPerRun(100, func() {
		dst, _ = s.Split(dst[:0], stream)
	}); avg != 0 {
		t.Fatalf("stream split: %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		dst, _ = s.Split(dst[:0], plain)
	}); avg != 0 {
		t.Fatalf("plain split: %.2f allocs/op, want 0", avg)
	}
}

// TestSplitterSweepAmplification pins the carried window as exact byte
// counts over one stream written in sequential requests: the first
// request builds its whole buffer, and every later one materializes
// exactly its own window's worth of new bytes and sweeps them plus two
// bitmap words (the warm-up word before the resume point and the cold
// word 0) — so swept ÷ emitted, 1.39 when every request rebuilt its
// lookback and lookahead, is within half a percent of 1.
func TestSplitterSweepAmplification(t *testing.T) {
	for _, algo := range []Algo{Gear, SeqCDC} {
		s := NewSplitter(Params{Algo: algo})
		const blocks, requests = 32, 32
		window := int64(blocks) * slotBytes
		for r := 0; r < requests; r++ {
			s.Split(nil, editWindow(3, 1, r*blocks, blocks))
		}
		first := window + int64(s.p.maxBytes) // clamped at the stream head: no lookback yet
		if lb := s.p.lookback(); lb%64 != 0 || lb > window {
			t.Fatalf("lookback %d: the counts below assume a word-aligned lookback inside one window", lb)
		}
		if want := first + (requests-1)*window; s.MaterializedBytes != want {
			t.Fatalf("%v: materialized %d bytes, want %d", algo, s.MaterializedBytes, want)
		}
		if want := first + (requests-1)*(window+2*64); s.SweptBytes != want {
			t.Fatalf("%v: swept %d bytes, want %d", algo, s.SweptBytes, want)
		}
		if s.EmittedBytes < requests*window {
			t.Fatalf("%v: emitted %d bytes < stream %d", algo, s.EmittedBytes, requests*window)
		}
		if amp := float64(s.SweptBytes) / float64(s.EmittedBytes); amp > 1.005 {
			t.Fatalf("%v: sweep amplification %.4f, want ≤ 1.005", algo, amp)
		}
	}
}

// carryParams are the bounds the carried window is checked under: the
// defaults of both chunkers, and bounds that leave the buffer start and
// end off the 64-byte grid.
var carryParams = []Params{
	{Algo: Gear},
	{Algo: SeqCDC},
	{Algo: SeqCDC, seqLen: 16},
	{Algo: Gear, minBytes: 300, maxBytes: 1000, avgBits: 8},   // lookback 2364, lookahead 1000: nothing aligned
	{Algo: SeqCDC, minBytes: 257, maxBytes: 4097, seqLen: 3},  // lookback 8515
	{Algo: SeqCDC, minBytes: 2048, maxBytes: 8192, seqLen: 4}, // aligned, smaller than one block
}

// checkCarried drives one long-lived Splitter through the windows a
// script describes and requires, window by window, exactly what a fresh
// Splitter gives for that window alone: the same chunks (count,
// ContentID, FP, bytes), the same buffer byte for byte and the same
// landmark bitmap word for word. A window is three script bytes — what
// to do, an argument, and the slot count (1–64): carry on where the
// last window ended (half of all windows), skip ahead (a gap), step
// back (overlapping the last window or wholly before it), switch to
// another object (1, 2) and generation (0–7), return to the clamped
// stream head, or let a plain request clobber the buffer first.
func checkCarried(t testing.TB, p Params, script []byte) {
	t.Helper()
	plain := make([]chunk.ContentID, 8)
	for i := range plain {
		plain[i] = chunk.ContentID(i*4099 + 1)
	}
	carried := NewSplitter(p)
	obj, gen, idx := uint32(1), uint8(0), 0
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
		arg, n := int(script[1]), 1+int(script[2])%64
		switch script[0] % 10 {
		case 5:
			idx += arg
		case 6:
			idx = max(idx-arg, 0)
		case 7:
			obj, gen = uint32(1+arg&1), uint8(arg>>1&7)
		case 8:
			idx = arg % 4
		case 9:
			carried.Split(nil, plain)
		}
		ids := editWindow(obj, gen, idx, n)
		idx += n

		fresh := NewSplitter(p)
		want, wantBytes := fresh.Split(nil, ids)
		got, gotBytes := carried.Split(nil, ids)
		if gotBytes != wantBytes || len(got) != len(want) {
			t.Fatalf("%+v step %d (%d/%d idx %d n %d): carried emits %d chunks / %d bytes, fresh %d / %d",
				p, step, obj, gen, idx-n, n, len(got), gotBytes, len(want), wantBytes)
		}
		for i := range want {
			if got[i].Content != want[i].Content || got[i].FP != want[i].FP {
				t.Fatalf("%+v step %d: chunk %d differs between carried and fresh splitters", p, step, i)
			}
		}
		if !bytes.Equal(carried.buf, fresh.buf) {
			t.Fatalf("%+v step %d: carried buffer differs from a fresh materialization", p, step)
		}
		if len(carried.marks) != len(fresh.marks) {
			t.Fatalf("%+v step %d: %d landmark words, fresh has %d", p, step, len(carried.marks), len(fresh.marks))
		}
		for w := range fresh.marks {
			if carried.marks[w] != fresh.marks[w] {
				t.Fatalf("%+v step %d: landmark word %d = %#x, cold sweep gives %#x", p, step, w, carried.marks[w], fresh.marks[w])
			}
		}
	}
}

// carryScript is the 200-window script TestSplitterCarryMatchesFresh
// runs and FuzzSplitterCarried starts from.
func carryScript() []byte {
	script := make([]byte, 3*200)
	rand.New(rand.NewSource(0x5EED)).Read(script)
	return script
}

// TestSplitterCarryMatchesFresh is the carried window's correctness
// property: one long-lived Splitter fed an arbitrary sequence of
// requests — sequential, overlapping, gapped, backwards, switching
// object and generation, changing size, interleaved with plain
// requests, under bounds that leave the buffer start and end off the
// 64-byte grid — emits exactly the chunks a fresh Splitter emits for
// each request alone, and its buffer and landmark bitmap equal the
// fresh (cold, whole-buffer) ones byte for byte and word for word.
func TestSplitterCarryMatchesFresh(t *testing.T) {
	for _, p := range carryParams {
		checkCarried(t, p, carryScript())
	}
}
