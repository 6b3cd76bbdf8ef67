package cdc

import "math/bits"

// Cut derivation: stage 2 of the chunker. A cut at offset c ends a
// chunk at c (end-exclusive); a landmark at byte position p proposes
// the cut c = p+1, so the landmark byte is the last byte of its
// chunk.
//
// Two modes:
//
//   - appendChainedCuts is the classic FastCDC walk for self-contained
//     buffers (plain-ID requests): each chunk ends at the first
//     landmark at least minBytes after the previous cut, or at
//     maxBytes, whichever comes first. Simple, but each cut depends on
//     the previous one, so an edit re-aligns every later cut until a
//     landmark happens to coincide — within one request that is fine.
//   - appendStreamCuts is the *normalized* mode for stream windows: a
//     landmark is accepted iff no other landmark precedes it within
//     minBytes. Acceptance is a pure function of a bounded window
//     (minBytes+64 bytes of content), not of any earlier cut, so two
//     streams sharing a run of content share every accepted cut inside
//     it regardless of byte offset. Accepted landmarks are provably
//     ≥ minBytes apart (a closer pair would have rejected the later
//     one), and gaps longer than maxBytes are grid-filled with cuts
//     anchored to the preceding accepted landmark — still
//     content-anchored, so still shift-invariant.

// nextMark returns the first marked position in [lo, hi), or -1.
func nextMark(marks []uint64, lo, hi int) int {
	if lo >= hi {
		return -1
	}
	w := lo >> 6
	word := marks[w] >> uint(lo&63) << uint(lo&63)
	for {
		if word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			if p >= hi {
				return -1
			}
			return p
		}
		w++
		if w<<6 >= hi {
			return -1
		}
		word = marks[w]
	}
}

// appendChainedCuts appends end-exclusive cuts for buf[0:n] to cuts
// and returns it. The final cut is always n (the buffer end), so the
// last chunk may run short of minB.
func appendChainedCuts(cuts []int32, marks []uint64, n, minB, maxB int) []int32 {
	last := 0
	for last < n {
		hi := last + maxB
		if hi > n {
			hi = n
		}
		next := hi
		// landmark p cuts at p+1; chunk size p+1-last ∈ [minB, maxB]
		if p := nextMark(marks, last+minB-1, hi); p >= 0 {
			next = p + 1
		}
		cuts = append(cuts, int32(next))
		last = next
	}
	return cuts
}

// appendStreamCuts appends end-exclusive cuts (offsets into the
// buffer) for a buffer that is a window of a larger byte stream and
// returns the extended slice. base is the stream offset of buf[0]; a
// base of zero marks the true stream head, which contributes a forced
// cut at offset 0. Cuts may be emitted for the entire buffer; the
// caller selects the spans overlapping its emission window.
//
// Callers must provide enough lookback before the region whose cuts
// they consume: positions closer than minB to the buffer start cannot
// see landmarks before the buffer (their acceptance may differ from
// the stream's truth), and the first 64 bytes carry a cold Gear
// window. Params.lookback covers both with margin.
func appendStreamCuts(cuts []int32, marks []uint64, n int, base int64, minB, maxB int) []int32 {
	// anchor: the previous cut. At the stream head it is offset 0
	// (forced, and emitted). Mid-stream, fall back to the absolute
	// maxB grid so a landmark desert at the buffer head still gets
	// cuts; the fallback is only ever consumed when no landmark
	// appeared in a full lookback of content (rare by construction),
	// and it loses shift-invariance only for those desert chunks.
	var anchor int
	headAnchored := base == 0
	if headAnchored {
		cuts = append(cuts, 0)
		anchor = 0
	} else {
		anchor = -int(base % int64(maxB))
		if anchor == 0 {
			anchor = -maxB
		}
	}
	// walk raw landmarks, accepting the isolated ones; grid-fill long
	// gaps from the last cut so no chunk exceeds maxB
	prevMark := -(minB + 1) // "no landmark before the buffer" as far as acceptance can see
	pos := 0
	for {
		p := nextMark(marks, pos, n)
		if p < 0 {
			break
		}
		accepted := p-prevMark >= minB
		prevMark = p
		pos = p + 1
		if !accepted {
			continue
		}
		c := p + 1
		cuts = fillGrid(cuts, anchor, c, minB, maxB)
		cuts = append(cuts, int32(c))
		anchor = c
	}
	// tail: plain maxB grid from the last cut, so every position is
	// within maxB of a cut. No min-fragment adjustment here — that
	// rule anchors on the *next* cut, and the only "next" available is
	// the buffer end, which is not content. The final span past the
	// last cut stays open: it is a straddler into content beyond the
	// buffer, closed by whoever owns that window.
	for g := anchor + maxB; g <= n; g += maxB {
		if g > 0 {
			cuts = append(cuts, int32(g))
		}
	}
	return cuts
}

// fillGrid appends cuts between anchor and next (both end-exclusive
// offsets, next not included) so that no gap exceeds maxB, stepping
// maxB from the anchor but never leaving a final fragment shorter
// than minB before next. Cuts at negative offsets (grid positions
// before the buffer) are clipped: they exist conceptually but cannot
// be emitted.
func fillGrid(cuts []int32, anchor, next, minB, maxB int) []int32 {
	for next-anchor > maxB {
		g := anchor + maxB
		if next-g < minB {
			g = next - minB
		}
		if g > 0 {
			cuts = append(cuts, int32(g))
		}
		anchor = g
	}
	return cuts
}
