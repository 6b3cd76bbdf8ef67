package cdc

import "testing"

// FuzzSeqMarks: bytes + seqLen → the bit-parallel sweep equals the
// scalar run predicate. The seeds are the shapes a word-at-a-time
// kernel gets wrong first: a ramp from position 0, ramps across one
// and two bitmap-word boundaries, a run broken exactly at a boundary,
// bytes either side of 0x80, and a tail shorter than one 8-byte group.
func FuzzSeqMarks(f *testing.F) {
	ramp := func(pre, n int) []byte {
		b := make([]byte, pre+n+3)
		for i := range b[:pre] {
			b[i] = byte(200 - i)
		}
		for i := 0; i < n; i++ {
			b[pre+i] = byte(1 + i)
		}
		return b
	}
	f.Add(ramp(0, 7), uint8(6))
	f.Add(ramp(0, 200), uint8(3))
	f.Add(ramp(59, 12), uint8(6))
	f.Add(ramp(61, 140), uint8(16))
	f.Add(append(ramp(58, 6), ramp(0, 9)...), uint8(6))
	f.Add([]byte{0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF, 0x00, 0x80, 0x7F, 0xFF, 0x01}, uint8(3))
	f.Add([]byte{1, 2, 3, 0, 1, 2, 3, 3, 0, 1, 2, 3, 2}, uint8(3))
	f.Fuzz(func(t *testing.T, buf []byte, sl uint8) {
		checkSeqMarks(t, "fuzz", buf, 3+int(sl)%14) // every legal seqLen, 3–16
	})
}

// FuzzGearMarks: bytes + avgBits → the batched Gear sweep equals the
// hash recomputed from scratch over each position's 64-byte window.
func FuzzGearMarks(f *testing.F) {
	long := make([]byte, 200)
	testFill(long, 7)
	f.Add(long, uint8(6))
	f.Add(long[:64], uint8(8))
	f.Add(long[:65], uint8(11))
	f.Add(make([]byte, 130), uint8(20))
	f.Fuzz(func(t *testing.T, buf []byte, ab uint8) {
		checkGearMarks(t, "fuzz", buf, 6+int(ab)%15) // every legal avgBits, 6–20
	})
}

// FuzzSplitterCarried: a script of windows (checkCarried decodes it)
// through one carried Splitter and a fresh one per window, under the
// bounds the first argument selects — chunks, buffer and landmark
// words must agree at every window. The seeds are consecutive
// 16-window pieces of the script TestSplitterCarryMatchesFresh runs,
// two for each set of bounds; an input is cut off at 16 windows, since
// each costs two splits of up to 64 slots.
func FuzzSplitterCarried(f *testing.F) {
	script := carryScript()
	for i := 0; i < 2*len(carryParams); i++ {
		f.Add(uint8(i), script[48*i:48*i+48])
	}
	f.Fuzz(func(t *testing.T, which uint8, script []byte) {
		checkCarried(t, carryParams[int(which)%len(carryParams)], script[:min(len(script), 48)])
	})
}

// FuzzStreamCuts: landmark gaps + legal bounds → the invariants of
// normalized cut derivation. Cuts strictly increase with no gap over
// maxBytes, buffer edges included; every landmark with no other within
// minBytes before it is cut at, those cuts lie ≥ minBytes apart, and a
// grid cut never leaves a fragment under minBytes before one; and a
// derivation over a window of the stream with lookback() behind it
// yields the whole stream's cuts inside the window, provided the
// lookback holds an accepted landmark (without one the windowed walk
// falls back to the absolute grid, by design).
func FuzzStreamCuts(f *testing.F) {
	// dense and sparse landmarks under the smallest bounds, with the
	// window over the dense stretch; deserts under the defaults
	dense := make([]byte, 0, 400)
	for i := 0; i < 200; i++ {
		dense = append(dense, byte(i*37), byte(i%4))
	}
	f.Add(dense, uint16(0), uint16(0), uint16(100))
	f.Add(dense[:300], uint16(44), uint16(400), uint16(3))
	f.Add([]byte{255, 255, 0, 9, 255, 127, 3, 0, 0, 1, 255, 255}, uint16(1792), uint16(12288), uint16(3))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, gaps []byte, minSel, maxSel, winSel uint16) {
		p := Params{minBytes: 256 + int(minSel)%4096}
		p.maxBytes = 2*p.minBytes + int(maxSel)%32768
		minB, maxB := p.minBytes, p.maxBytes
		// landmark positions: two input bytes a gap, up to 2·maxBytes
		var lands []int
		pos := -1
		for ; len(gaps) >= 2 && len(lands) < 256; gaps = gaps[2:] {
			pos += 1 + (int(gaps[0])|int(gaps[1])<<8)%(2*maxB)
			lands = append(lands, pos)
		}
		n := pos + 1 + int(winSel)%(2*maxB)
		// derive cuts over stream bytes [from, to) and check their shape
		derive := func(from, to int) []int32 {
			marks := make([]uint64, (to-from+63)/64+1)
			for _, l := range lands {
				if l >= from && l < to {
					marks[(l-from)>>6] |= 1 << uint((l-from)&63)
				}
			}
			cuts := appendStreamCuts(nil, marks, to-from, int64(from), minB, maxB)
			prev := int32(0)
			for k, c := range cuts {
				if k > 0 && c <= prev {
					t.Fatalf("[%d, %d): cut %d at %d does not follow the cut at %d", from, to, k, c, prev)
				}
				if int(c-prev) > maxB {
					t.Fatalf("[%d, %d): cut %d at %d leaves a gap of %d > maxBytes %d", from, to, k, c, c-prev, maxB)
				}
				prev = c
			}
			if to-from-int(prev) >= maxB || from == 0 && cuts[0] != 0 {
				t.Fatalf("[%d, %d): cuts %v leave the head uncut or a tail ≥ maxBytes", from, to, cuts)
			}
			return cuts
		}
		cuts := derive(0, n)

		// the cuts isolated landmarks propose — no other landmark within
		// minBytes before them — are all there, ≥ minBytes apart, with no
		// shorter fragment between a grid cut and the next of them
		isolated := map[int32]bool{}
		lastLand := -(minB + 1)
		for _, l := range lands {
			if l-lastLand >= minB {
				isolated[int32(l+1)] = true
			}
			lastLand = l
		}
		found, lastIsolated := 0, int32(-1)
		for k, c := range cuts {
			if !isolated[c] {
				continue
			}
			found++
			if lastIsolated >= 0 && int(c-lastIsolated) < minB {
				t.Fatalf("landmark cuts at %d and %d are under minBytes %d apart", lastIsolated, c, minB)
			}
			if k > 1 && cuts[k-1] != lastIsolated && int(c-cuts[k-1]) < minB {
				t.Fatalf("grid cut at %d leaves %d < minBytes %d before the landmark cut at %d", cuts[k-1], c-cuts[k-1], minB, c)
			}
			lastIsolated = c
		}
		if found != len(isolated) {
			t.Fatalf("%d of %d isolated landmarks were cut at", found, len(isolated))
		}

		// a window [wStart, wEnd) with lookback behind and maxBytes ahead
		wStart := int(p.lookback()) + 1 + int(winSel)*7%(n+1)
		wEnd := wStart + 1 + int(winSel)*131%(4*maxB)
		bufStart, bufEnd := wStart-int(p.lookback()), wEnd+maxB
		anchored := false
		for c := range isolated {
			anchored = anchored || (int(c) > bufStart+minB && int(c) <= wStart)
		}
		if bufEnd > n || !anchored {
			return
		}
		want := collectShifted(cuts, wStart, wEnd, 0)
		got := collectShifted(derive(bufStart, bufEnd), wStart, wEnd, -bufStart)
		if len(got) != len(want) {
			t.Fatalf("window [%d, %d): %d cuts, the whole stream has %d there", wStart, wEnd, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("window [%d, %d): cut %d at %d, the whole stream cuts at %d", wStart, wEnd, k, got[k], want[k])
			}
		}
	})
}
