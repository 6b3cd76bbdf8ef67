package cdc

import (
	"fmt"
	"testing"
)

// testRand is a tiny deterministic byte stream for tests (SplitMix64
// walk), so every run sees identical buffers.
func testFill(buf []byte, seed uint64) {
	w := uint64(0)
	for i := range buf {
		if i&7 == 0 {
			seed += 0x9E3779B97F4A7C15
			w = mix64(seed)
		}
		buf[i] = byte(w >> (8 * uint(i&7)))
	}
}

var markSizes = []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 1000, 4096, 4096 + 17}

// checkMarks sweeps buf and compares the bitmap against the scalar
// predicate at every position; no bit past the buffer may be set.
func checkMarks(t testing.TB, what string, buf []byte, sweep func(marks []uint64), scalar func(i int) bool) {
	t.Helper()
	marks := make([]uint64, (len(buf)+63)/64)
	sweep(marks)
	for i := 0; i < len(marks)*64; i++ {
		got := marks[i>>6]>>uint(i&63)&1 == 1
		if want := i < len(buf) && scalar(i); got != want {
			t.Fatalf("%s n=%d pos=%d: batched=%v scalar=%v", what, len(buf), i, got, want)
		}
	}
}

func checkGearMarks(t testing.TB, what string, buf []byte, avgBits int) {
	t.Helper()
	checkMarks(t, fmt.Sprintf("%s avgBits=%d", what, avgBits), buf,
		func(marks []uint64) { gearMarks(buf, avgBits, marks) },
		func(i int) bool { return gearMarkScalar(buf, i, avgBits) })
}

func checkSeqMarks(t testing.TB, what string, buf []byte, seqLen int) {
	t.Helper()
	checkMarks(t, fmt.Sprintf("%s seqLen=%d", what, seqLen), buf,
		func(marks []uint64) { seqMarks(buf, seqLen, marks) },
		func(i int) bool { return seqMarkScalar(buf, i, seqLen) })
}

// TestGearMarksMatchScalar cross-checks the batched 64-byte-word Gear
// sweep against the per-position scalar reference on buffers that
// exercise every word-boundary case. avgBits 6 puts a landmark in
// nearly two blocks of three, so the exact-position walk of a block
// that holds one is the common path there and the rare one at 11.
func TestGearMarksMatchScalar(t *testing.T) {
	for _, avgBits := range []int{6, 8, 11} {
		for _, n := range markSizes {
			buf := make([]byte, n)
			testFill(buf, uint64(n)*1000+uint64(avgBits))
			checkGearMarks(t, "random", buf, avgBits)
		}
	}
}

// forceGearMark rewrites the byte at p — and, only if no value of it
// will do, the one or two before it as well — until p is a landmark.
// Bytes after p are untouched, so landmarks forced earlier at lower
// positions stand unless the search had to reach back into them, which
// the caller's own check of the bitmap would show.
func forceGearMark(t *testing.T, buf []byte, p, avgBits int) {
	t.Helper()
	for width := 1; width <= 3 && width <= p+1; width++ {
		for c := 0; c < 1<<(8*width); c++ {
			for j := 0; j < width; j++ {
				buf[p-j] = byte(c >> (8 * j))
			}
			if gearMarkScalar(buf, p, avgBits) {
				return
			}
		}
	}
	t.Fatalf("no bytes make position %d a landmark at avgBits %d", p, avgBits)
}

// TestGearMarksForcedPositions places landmarks where a per-block test
// followed by a walk from the block-entry hash goes wrong first: the
// first and the last byte of a block (the entry hash is used at once;
// the block's last hash is the next one's entry), several in one block,
// blocks with none between them, and the short block at the buffer's
// end.
func TestGearMarksForcedPositions(t *testing.T) {
	for _, avgBits := range []int{6, 11} {
		for _, c := range []struct {
			n     int
			at    []int
			dense bool // neighbours and position 0: one byte each must do, so avgBits 6 only
		}{
			{64, []int{63}, false},
			{128, []int{64}, false},
			{128, []int{60, 63, 127}, false},
			{256, []int{128, 131, 150, 191}, false}, // several in one block, none in the one after
			{200, []int{64, 127, 192, 199}, false},  // the last two in the 8-byte tail block
			{65, []int{64}, false},
			{192, []int{0, 63, 64, 127, 128}, true},
		} {
			if c.dense && avgBits != 6 {
				continue
			}
			buf := make([]byte, c.n)
			testFill(buf, uint64(c.n)<<8|uint64(avgBits))
			marks := make([]uint64, (c.n+63)/64)
			for _, p := range c.at {
				forceGearMark(t, buf, p, avgBits)
			}
			gearMarks(buf, avgBits, marks)
			for _, p := range c.at {
				if marks[p>>6]>>uint(p&63)&1 == 0 {
					t.Fatalf("avgBits %d n=%d: forced landmark at %d is not in the bitmap", avgBits, c.n, p)
				}
			}
			checkGearMarks(t, "forced", buf, avgBits)
		}
	}
}

// TestSeqMarksMatchScalar does the same for the sequence-based sweep
// at every legal seqLen, on random bytes with spliced monotone ramps
// (shorter than, equal to and longer than seqLen; longer than one and
// two bitmap words; starting at position 0, where there is no left
// neighbour) and on low-entropy bytes, where equal neighbours and
// short runs are the common case rather than the exception.
func TestSeqMarksMatchScalar(t *testing.T) {
	ramp := func(buf []byte, at, length int) {
		at = max(at, 0)
		for j := 0; j < length && at+j < len(buf); j++ {
			buf[at+j] = byte(1 + j) // strictly increasing for up to 255 steps
		}
	}
	for seqLen := 3; seqLen <= 16; seqLen++ {
		for _, n := range markSizes {
			buf := make([]byte, n)
			testFill(buf, uint64(n)*77+uint64(seqLen))
			checkSeqMarks(t, "random", buf, seqLen)

			// ramps of assorted lengths, some crossing 64-byte word
			// boundaries, one ending exactly on the buffer end
			for _, at := range []int{5, 60, 120, 1020} {
				ramp(buf, at, 2*seqLen+3)
			}
			ramp(buf, n-seqLen-1, seqLen+1)
			checkSeqMarks(t, "ramps", buf, seqLen)

			for _, length := range []int{seqLen, seqLen + 1, 70, 130, 200} {
				testFill(buf, uint64(length))
				ramp(buf, 0, length)
				checkSeqMarks(t, "ramp at 0", buf, seqLen)
				testFill(buf, uint64(length))
				ramp(buf, 61, length)
				checkSeqMarks(t, "long ramp", buf, seqLen)
			}

			testFill(buf, uint64(n)+uint64(seqLen)<<32)
			for i := range buf {
				buf[i] &= 3
			}
			checkSeqMarks(t, "low entropy", buf, seqLen)
		}
	}
}

// TestStepBits8 pins the SWAR compare under the sequence sweep against
// the per-byte comparison, over byte pairs chosen to hit every
// high-bit/low-bits combination in every lane.
func TestStepBits8(t *testing.T) {
	vals := []byte{0, 1, 2, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF}
	for lane := 0; lane < 8; lane++ {
		for _, a := range vals {
			for _, b := range vals {
				// the other lanes hold the reverse comparison, so a bit
				// leaking across lanes shows
				var x, y uint64
				for k := 0; k < 8; k++ {
					if k == lane {
						x |= uint64(a) << (8 * k)
						y |= uint64(b) << (8 * k)
					} else {
						x |= uint64(b) << (8 * k)
						y |= uint64(a) << (8 * k)
					}
				}
				var want uint64
				for k := 0; k < 8; k++ {
					if byte(x>>(8*k)) > byte(y>>(8*k)) {
						want |= 1 << k
					}
				}
				if got := stepBits8(x, y); got != want {
					t.Fatalf("stepBits8(%#016x, %#016x) = %08b, want %08b", x, y, got, want)
				}
			}
		}
	}
}

// TestSeqMarksOnePerRun checks the exactly-once property directly: a
// single long monotone ramp yields exactly one landmark.
func TestSeqMarksOnePerRun(t *testing.T) {
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = byte(i) // strictly increasing over [0,128)
	}
	marks := make([]uint64, 2)
	seqMarks(buf, 6, marks)
	count := 0
	for i := 0; i < len(buf); i++ {
		if marks[i>>6]>>uint(i&63)&1 == 1 {
			count++
			if i != 6 {
				t.Fatalf("landmark at %d, want 6 (sixth step of the run)", i)
			}
		}
	}
	if count != 1 {
		t.Fatalf("%d landmarks in one monotone run, want 1", count)
	}
}
