package cdc

import (
	"bytes"
	"testing"
)

// TestEditCodecRoundTrip checks the (object, gen, idx) packing and the
// consecutive-index ⇒ consecutive-ID property streamRun depends on.
func TestEditCodecRoundTrip(t *testing.T) {
	cases := []struct {
		obj uint32
		gen uint8
		idx uint32
	}{
		{0, 0, 0}, {1, 1, 1}, {0xFFFFFF, 255, MaxEditIdx},
		{12345, 7, 1 << 20}, {42, 0, MaxEditIdx - 1},
	}
	for _, c := range cases {
		id := EncodeEdit(c.obj, c.gen, c.idx)
		if !IsEdit(id) {
			t.Fatalf("EncodeEdit(%d,%d,%d) not tagged", c.obj, c.gen, c.idx)
		}
		obj, gen, idx := DecodeEdit(id)
		if obj != c.obj || gen != c.gen || idx != c.idx {
			t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)", c.obj, c.gen, c.idx, obj, gen, idx)
		}
		if c.idx < MaxEditIdx {
			if next := EncodeEdit(c.obj, c.gen, c.idx+1); next != id+1 {
				t.Fatalf("idx+1 must encode to id+1: %x vs %x", uint64(next), uint64(id)+1)
			}
		}
	}
}

// streamByte is the stream's definition, one byte at a time: the
// generation's own head bytes up to its cumulative edit offset, the
// base stream shifted by that offset after it.
func streamByte(obj uint32, gen uint8, q int64) byte {
	off := int64(EditOffset(obj, gen))
	if q < off {
		return headByte(objSeed(obj), gen, q)
	}
	return baseByte(objSeed(obj), q-off)
}

// TestMaterializeStreamPiecewise: random access must agree with the
// per-byte definition and with itself — materializing a range in one
// call equals materializing it in arbitrary pieces — for a generation
// shifted right (its head is edit bytes) and one shifted left (a
// negative cumulative offset: its first byte is mid-word in the base
// stream), at every combination of start offset within a base word and
// length within a 32-byte stripe, so each of the lead-in, stripe and
// tail loops runs for every count it can, including zero.
func TestMaterializeStreamPiecewise(t *testing.T) {
	const n = 20_000
	for _, c := range []struct {
		obj  uint32
		gen  uint8
		sign int
	}{{3, 5, +1}, {1, 3, -1}} {
		obj, gen := c.obj, c.gen
		if off := EditOffset(obj, gen); off*c.sign <= 0 {
			t.Fatalf("stream %d/%d: cumulative offset %+d, the case wants sign %+d", obj, gen, off, c.sign)
		}
		whole := make([]byte, n)
		MaterializeStream(obj, gen, 0, whole)
		for q := range whole {
			if whole[q] != streamByte(obj, gen, int64(q)) {
				t.Fatalf("stream %d/%d: byte %d differs from the per-byte definition", obj, gen, q)
			}
		}
		for _, splitAt := range []int{1, 7, 4096, 13_011} {
			a := make([]byte, splitAt)
			b := make([]byte, n-splitAt)
			MaterializeStream(obj, gen, 0, a)
			MaterializeStream(obj, gen, int64(splitAt), b)
			if !bytes.Equal(whole[:splitAt], a) || !bytes.Equal(whole[splitAt:], b) {
				t.Fatalf("stream %d/%d: piecewise materialization at %d diverges", obj, gen, splitAt)
			}
		}
		// starts inside and just past the edited head, and mid-stream
		for _, from0 := range []int64{0, 9, 9984} {
			for from := from0; from < from0+8; from++ {
				for length := 64; length < 96; length++ {
					p := make([]byte, length)
					MaterializeStream(obj, gen, from, p)
					if !bytes.Equal(whole[from:from+int64(length)], p) {
						t.Fatalf("stream %d/%d: read of %d bytes at %d diverges", obj, gen, length, from)
					}
				}
			}
		}
	}
}

// TestMaterializeStreamGenerationsShare verifies the shifted-sharing
// contract: beyond its edited head, generation g's bytes are
// generation g−1's bytes at a shifted offset — the redundancy CDC is
// supposed to recover and fixed-4K chunking cannot.
func TestMaterializeStreamGenerationsShare(t *testing.T) {
	const obj, n = 11, 1 << 16
	for gen := uint8(1); gen <= 6; gen++ {
		cur := make([]byte, n)
		prev := make([]byte, n+64)
		MaterializeStream(obj, gen, 0, cur)
		MaterializeStream(obj, gen-1, 0, prev)
		delta := EditDelta(obj, gen)
		if delta == 0 || delta < -8 || delta > 16 {
			t.Fatalf("gen %d: edit delta %d out of range", gen, delta)
		}
		// skip both generations' head regions, then require byte
		// equality at the shifted offset
		skip := int64(EditOffset(obj, gen)) + 32
		if skip < 64 {
			skip = 64
		}
		for q := skip; q < n; q++ {
			if cur[q] != prev[q-int64(delta)] {
				t.Fatalf("gen %d: byte %d not shared with gen %d at offset %+d", gen, q, gen-1, delta)
			}
		}
	}
}

// TestMaterializeStreamBlocksUnique spot-checks that distinct 4 KiB
// blocks of one stream are distinct bytes (the ID model's uniqueness,
// carried down to the byte level).
func TestMaterializeStreamBlocksUnique(t *testing.T) {
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	MaterializeStream(1, 0, 0, a)
	MaterializeStream(1, 0, 4096, b)
	if bytes.Equal(a, b) {
		t.Fatal("adjacent blocks materialized identically")
	}
	MaterializeStream(2, 0, 0, b)
	if bytes.Equal(a, b) {
		t.Fatal("different objects materialized identically")
	}
}
