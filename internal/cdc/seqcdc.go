package cdc

import "encoding/binary"

// SeqCDC-style sequence-based landmarks: instead of a rolling hash,
// a landmark is a monotone byte pattern — a run of seqLen consecutive
// strictly-increasing steps (b[i] > b[i-1]). No multiplications, no
// table lookups, and no hash state, which is why the SeqCDC/VectorCDC
// line of work vectorizes so well. The predicate is a pure function of
// the seqLen+1 bytes ending at the position (plus one byte to its left
// to detect the run's start), so cutpoints are shift-invariant exactly
// like Gear's.
//
// The sweep is bit-parallel. Stage one turns bytes into a "step
// increases" bitmap g, bit i = buf[i] > buf[i-1], eight positions per
// SWAR compare of buf[i:] against buf[i-1:]. Stage two finds run ends
// in g a bitmap word (64 positions) at a time: position i is a
// landmark iff g is set at i, i-1, …, i-seqLen+1 and clear at
// i-seqLen — an AND of seqLen shifted copies of g, and-not one more.
// There is no run counter and no data-dependent branch: on real
// content `b[i] > b[i-1]` is a coin flip, and a per-byte branch on it
// mispredicts half the time.

const (
	swarHi = 0x8080808080808080 // bit 7 of every byte
	swarLo = 0x7F7F7F7F7F7F7F7F // bits 0–6 of every byte
	// swarPack gathers bit 7 of byte k into bit 56+k: the partial
	// products 2^(8k+7+7j) are all distinct, so nothing carries, and
	// only j = 7−k lands in the top byte.
	swarPack = 0x0002040810204081
)

// stepBits8 compares the 8 bytes of x against the 8 bytes of y,
// unsigned and bytewise, and returns bit k = (byte k of x > byte k of
// y). The low 7 bits compare by a borrow-free subtract — (y|0x80) −
// (x&0x7F) keeps bit 7 iff y's low bits ≥ x's — and bit 7 settles it
// where the high bits differ.
func stepBits8(x, y uint64) uint64 {
	t := (y | swarHi) - (x & swarLo)
	gt := (x &^ y) | (^(x ^ y) &^ t)
	return (gt & swarHi) * swarPack >> 56
}

// stepWord returns the step bitmap of the 64-byte block b[1:], bit k =
// b[k+1] > b[k]: each 8-byte group is compared against the load one
// byte to its left, b[0] being the byte before the block.
func stepWord(b *[65]byte) uint64 {
	le := binary.LittleEndian
	return stepBits8(le.Uint64(b[1:]), le.Uint64(b[0:])) |
		stepBits8(le.Uint64(b[9:]), le.Uint64(b[8:]))<<8 |
		stepBits8(le.Uint64(b[17:]), le.Uint64(b[16:]))<<16 |
		stepBits8(le.Uint64(b[25:]), le.Uint64(b[24:]))<<24 |
		stepBits8(le.Uint64(b[33:]), le.Uint64(b[32:]))<<32 |
		stepBits8(le.Uint64(b[41:]), le.Uint64(b[40:]))<<40 |
		stepBits8(le.Uint64(b[49:]), le.Uint64(b[48:]))<<48 |
		stepBits8(le.Uint64(b[57:]), le.Uint64(b[56:]))<<56
}

// runEnds returns the landmark word for step word g with pg the step
// word before it: bit i is set iff steps i−seqLen+1 … i all increase
// and step i−seqLen does not. The 128-bit pair pg:g moves up one
// position per round, so round k ANDs in step i−k.
func runEnds(pg, g uint64, seqLen int) uint64 {
	m := g
	for k := 1; k < seqLen; k++ {
		g, pg = g<<1|pg>>63, pg<<1
		m &= g
	}
	return m &^ (g<<1 | pg>>63)
}

// seqMarks sweeps buf and sets bit i of marks for every position
// where the increasing run reaches *exactly* seqLen steps — a run
// longer than seqLen marks only its seqLen-th step, so one monotone
// region yields one candidate instead of a dense cluster. marks must
// hold at least (len(buf)+63)/64 words; every touched word is fully
// overwritten.
func seqMarks(buf []byte, seqLen int, marks []uint64) {
	n := len(buf)
	var pg uint64
	for w := 0; w<<6 < n; w++ {
		base := w << 6
		var g uint64
		if base > 0 && base+64 <= n {
			g = stepWord((*[65]byte)(buf[base-1:]))
		} else {
			// The first block has no byte to its left — position 0
			// never steps, which comparing buf[0] with itself gives —
			// and a short last block has none to its right: zero
			// padding never steps either (0 > x is false), so the bits
			// past n come out clear without a mask.
			var edge [65]byte
			edge[0] = buf[max(base-1, 0)]
			copy(edge[1:], buf[base:])
			g = stepWord(&edge)
		}
		marks[w] = runEnds(pg, g, seqLen)
		pg = g
	}
}

// seqMarkScalar is the reference predicate: position i is a landmark
// iff buf[i-seqLen..i] is strictly increasing and the run does not
// extend further left (exactly seqLen steps end at i).
func seqMarkScalar(buf []byte, i int, seqLen int) bool {
	if i < seqLen {
		return false
	}
	for j := i - seqLen + 1; j <= i; j++ {
		if buf[j] <= buf[j-1] {
			return false
		}
	}
	// run must start at i-seqLen: the step into it must not increase
	if i-seqLen > 0 && buf[i-seqLen] > buf[i-seqLen-1] {
		return false
	}
	return true
}
