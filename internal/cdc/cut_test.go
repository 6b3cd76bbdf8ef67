package cdc

import "testing"

func sweepGear(buf []byte, avgBits int) []uint64 {
	marks := make([]uint64, (len(buf)+63)/64)
	gearMarks(buf, avgBits, marks)
	return marks
}

// TestChainedCutsBounds checks the classic-walk invariants: cuts
// strictly increase, every chunk is within [minB, maxB] except the
// final one (which may run short), and the final cut is the buffer
// end.
func TestChainedCutsBounds(t *testing.T) {
	const minB, maxB, avgBits = 2048, 16384, 11
	for _, n := range []int{1, 2047, 2048, 100_000, 1 << 18} {
		buf := make([]byte, n)
		testFill(buf, uint64(n))
		cuts := appendChainedCuts(nil, sweepGear(buf, avgBits), n, minB, maxB)
		if len(cuts) == 0 || int(cuts[len(cuts)-1]) != n {
			t.Fatalf("n=%d: final cut %v, want %d", n, cuts, n)
		}
		last := 0
		for k, c := range cuts {
			sz := int(c) - last
			if sz <= 0 || sz > maxB {
				t.Fatalf("n=%d cut %d: chunk size %d out of (0, %d]", n, k, sz, maxB)
			}
			if sz < minB && k != len(cuts)-1 {
				t.Fatalf("n=%d cut %d: non-final chunk size %d < min %d", n, k, sz, minB)
			}
			last = int(c)
		}
	}
}

// TestStreamCutsSpacing checks the normalized-mode invariants over a
// head-anchored stream buffer: a forced cut at 0, strictly increasing
// cuts, and every gap within [minB, maxB].
func TestStreamCutsSpacing(t *testing.T) {
	const minB, maxB, avgBits = 2048, 16384, 11
	n := 1 << 18
	buf := make([]byte, n)
	testFill(buf, 42)
	cuts := appendStreamCuts(nil, sweepGear(buf, avgBits), n, 0, minB, maxB)
	if len(cuts) == 0 || cuts[0] != 0 {
		t.Fatalf("head-anchored stream must start with cut 0 (%d cuts)", len(cuts))
	}
	for k := 1; k < len(cuts); k++ {
		gap := int(cuts[k] - cuts[k-1])
		if gap < minB || gap > maxB {
			t.Fatalf("cut %d: gap %d outside [%d, %d]", k, gap, minB, maxB)
		}
	}
	// the uncut tail past the last cut is a straddler-in-progress and
	// must be shorter than maxB (otherwise a grid cut was missed)
	if tail := n - int(cuts[len(cuts)-1]); tail >= maxB {
		t.Fatalf("uncut tail %d ≥ max %d", tail, maxB)
	}
}

// collectShifted filters cuts to [lo, hi) and shifts them by -delta,
// for comparing cut sets across edited streams.
func collectShifted(cuts []int32, lo, hi, delta int) []int {
	var out []int
	for _, c := range cuts {
		p := int(c) - delta
		if p >= lo && p < hi {
			out = append(out, p)
		}
	}
	return out
}

// TestStreamCutsShiftInvariance is the core normalized-chunking
// property: inserting or deleting bytes at the head of a stream leaves
// every cut beyond a bounded resynchronization window unchanged
// (relative to the shared content). Chained mode has no such property
// — each cut depends on the previous one — which is exactly why the
// splitter uses stream mode for edit-encoded windows.
func TestStreamCutsShiftInvariance(t *testing.T) {
	const minB, maxB, avgBits = 2048, 16384, 11
	const n = 1 << 18
	base := make([]byte, n)
	testFill(base, 7)

	// resync bound: acceptance needs minB+64 bytes of shared history,
	// then the first accepted landmark re-anchors the grid; one max
	// chunk of shared content is guaranteed to contain an accepted cut
	// only statistically, so allow one extra maxB of slack.
	const resync = 2*maxB + minB + 64

	for _, edit := range []int{+13, +1, -5, -8} {
		edited := make([]byte, 0, n+16)
		if edit > 0 { // insert `edit` junk bytes at the head
			for j := 0; j < edit; j++ {
				edited = append(edited, byte(0xA5^j))
			}
			edited = append(edited, base...)
		} else { // delete -edit bytes from the head
			edited = append(edited, base[-edit:]...)
		}
		cutsA := appendStreamCuts(nil, sweepGear(base, avgBits), len(base), 0, minB, maxB)
		cutsB := appendStreamCuts(nil, sweepGear(edited, avgBits), len(edited), 0, minB, maxB)

		// positions in base-stream coordinates; delta maps edited→base
		lo, hi := resync, n-maxB
		wantCuts := collectShifted(cutsA, lo, hi, 0)
		gotCuts := collectShifted(cutsB, lo, hi, edit)
		if len(wantCuts) == 0 {
			t.Fatalf("edit %+d: no cuts in comparison window", edit)
		}
		if len(gotCuts) != len(wantCuts) {
			t.Fatalf("edit %+d: %d cuts vs %d in shared region", edit, len(gotCuts), len(wantCuts))
		}
		for k := range wantCuts {
			if gotCuts[k] != wantCuts[k] {
				t.Fatalf("edit %+d: cut %d at %d, want %d", edit, k, gotCuts[k], wantCuts[k])
			}
		}
	}
}

// TestStreamCutsWindowed checks the lookback contract splitStream
// relies on: cuts computed over a mid-stream window (with lookback
// context) match the cuts of the full stream inside that window.
func TestStreamCutsWindowed(t *testing.T) {
	const minB, maxB, avgBits = 2048, 16384, 11
	const n = 1 << 18
	lookback := Params{minBytes: minB, maxBytes: maxB}.lookback()
	full := make([]byte, n)
	testFill(full, 99)
	cutsFull := appendStreamCuts(nil, sweepGear(full, avgBits), n, 0, minB, maxB)

	wStart, wEnd := int64(120_000), int64(200_000)
	bufStart := wStart - lookback
	window := full[bufStart:wEnd]
	cutsWin := appendStreamCuts(nil, sweepGear(window, avgBits), len(window), bufStart, minB, maxB)

	want := collectShifted(cutsFull, int(wStart), int(wEnd), 0)
	got := collectShifted(cutsWin, int(wStart), int(wEnd), int(-bufStart))
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("windowed: %d cuts vs %d in window", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("windowed cut %d at %d, want %d", k, got[k], want[k])
		}
	}
}
