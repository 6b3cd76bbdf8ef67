package cdc

import "testing"

// FuzzSeqMarks: bytes + SeqLen → the bit-parallel sweep equals the
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
		checkSeqMarks(t, "fuzz", buf, 3+int(sl)%14) // every legal SeqLen, 3–16
	})
}

// FuzzGearMarks: bytes + AvgBits → the batched Gear sweep equals the
// hash recomputed from scratch over each position's 64-byte window.
func FuzzGearMarks(f *testing.F) {
	long := make([]byte, 200)
	testFill(long, 7)
	f.Add(long, uint8(6))
	f.Add(long[:64], uint8(8))
	f.Add(long[:65], uint8(11))
	f.Add(make([]byte, 130), uint8(20))
	f.Fuzz(func(t *testing.T, buf []byte, ab uint8) {
		checkGearMarks(t, "fuzz", buf, 6+int(ab)%15) // every legal AvgBits, 6–20
	})
}
