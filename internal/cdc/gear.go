package cdc

// The Gear rolling hash: h = (h<<1) + G[b]. Each left shift retires
// one byte's influence from the top bit, so after 64 steps a byte has
// left the hash entirely — the effective window is exactly 64 bytes,
// and the landmark predicate ("top avgBits bits of h are zero") is a
// pure function of the 64 bytes ending at the position. That locality
// is what makes the cutpoints shift-invariant: the same 64 content
// bytes produce the same landmark decision at any stream offset.

// gearTable is the 256-entry random table G, generated once by a
// SplitMix64 walk so the chunker is deterministic across processes
// and platforms.
var gearTable = func() (t [256]uint64) {
	x := uint64(0x243F6A8885A308D3) // π, nothing up the sleeve
	for i := range t {
		x += 0x9E3779B97F4A7C15
		t[i] = mix64(x)
	}
	return t
}()

// mix64 is the murmur3/splitmix finalizer used throughout this
// repository (journal checksums, synthetic fingerprints).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// gearMask returns the landmark mask for a density of one candidate
// per 2^avgBits bytes. The mask selects the TOP bits of the hash:
// Gear's low bits see only the most recent few bytes, while the top
// bits mix the whole 64-byte window (the FastCDC observation).
func gearMask(avgBits int) uint64 { return ^uint64(0) << (64 - avgBits) }

// gearMarks sweeps buf and sets bit i of marks for every landmark
// position i. marks must hold at least (len(buf)+63)/64 words; every
// touched word is fully overwritten. The top avgBits bits of h are
// zero exactly when h is below 1<<(64-avgBits), so a 64-byte block
// holds a landmark iff the smallest hash in it is: the sweep carries
// that minimum beside the hash chain (a compare and a conditional move
// a byte, nothing data-dependent to branch on) and asks once per
// block. Only a block that holds one — 64 in 2^avgBits of them — is
// walked again, from the hash it was entered with, for the exact
// positions.
func gearMarks(buf []byte, avgBits int, marks []uint64) {
	limit := uint64(1) << (64 - avgBits)
	var h uint64
	w := 0
	for ; len(buf) >= 64; buf, w = buf[64:], w+1 {
		b := (*[64]byte)(buf)
		entry, lo := h, ^uint64(0)
		for k := 0; k < 64; k += 8 {
			h = h<<1 + gearTable[b[k]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+1]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+2]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+3]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+4]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+5]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+6]]
			lo = min(lo, h)
			h = h<<1 + gearTable[b[k+7]]
			lo = min(lo, h)
		}
		marks[w] = 0
		if lo < limit {
			marks[w] = gearBlockMarks(entry, b[:], limit)
		}
	}
	if len(buf) > 0 {
		marks[w] = gearBlockMarks(h, buf, limit)
	}
}

// gearBlockMarks returns the landmark bits of one block of at most 64
// bytes entered with hash h: bit i is set iff the hash after b[i] is
// below limit.
func gearBlockMarks(h uint64, b []byte, limit uint64) (bits uint64) {
	for i, c := range b {
		h = h<<1 + gearTable[c]
		if h < limit {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// gearMarkScalar is the reference predicate: it recomputes the rolling
// hash at position i from scratch over the (at most) 64-byte window
// ending there. Tests cross-check the batched sweep against it.
func gearMarkScalar(buf []byte, i int, avgBits int) bool {
	lo := i - 63
	if lo < 0 {
		lo = 0
	}
	var h uint64
	for j := lo; j <= i; j++ {
		h = h<<1 + gearTable[buf[j]]
	}
	return h&gearMask(avgBits) == 0
}
