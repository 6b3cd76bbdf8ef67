package cdc

import (
	"encoding/binary"

	"github.com/pod-dedup/pod/internal/chunk"
)

// The byte-materializer: a deterministic expansion of synthetic
// ContentIDs into reproducible byte content, so CDC has real bytes to
// cut without the traces carrying any.
//
// Two ID families exist:
//
//   - Plain IDs (everything the existing workload generators emit):
//     the canonical chunk.FillPayload bytes — equal IDs still mean
//     byte-identical 4 KiB blocks, so CDC over a plain trace sees
//     exactly the content the ID model promised.
//   - Edit-encoded IDs (EncodeEdit): ID = (object, generation, block
//     index), describing block `idx` of generation `gen` of a
//     snapshot-like byte stream. Generation g's stream is generation
//     g−1's stream with a small deterministic edit at its head — an
//     insert of 1–16 bytes or a delete of 1–8 — so consecutive
//     generations share almost all their bytes at shifted offsets.
//     Every 4 KiB block of every generation is nevertheless unique as
//     an ID (the whole point: fixed-4K chunking finds nothing).
//
// The stream is defined by random access, never by replaying edits:
//
//	stream(obj, g)[q] = head(obj, g, q)          for q <  max(0, off(g))
//	                  = base(obj)[q − off(g)]    for q ≥ max(0, off(g))
//
// where off(g) is the cumulative net edit offset and base(obj) is an
// infinite deterministic byte stream (one mix64 word per 8 bytes).
// Equal base offsets yield equal bytes across generations, which is
// the byte-level redundancy the chunkers recover; off(g) shifts where
// those bytes appear, which is what defeats fixed chunking.

// Edit-encoded ContentID layout: tag(1) | object(24) | gen(8) | idx(31).
const (
	editTag     = uint64(1) << 63
	editIdxBits = 31
	editGenBits = 8
	editIdxMask = uint64(1)<<editIdxBits - 1
	editGenMask = uint64(1)<<editGenBits - 1

	// MaxEditIdx bounds the block index of an edit-encoded ID; a
	// request's window must stay below it so consecutive IDs differ by
	// exactly one.
	MaxEditIdx = uint32(editIdxMask)
)

// EncodeEdit packs (object, generation, block index) into an
// edit-encoded ContentID. Consecutive block indexes yield consecutive
// IDs, which is how the splitter recognizes a stream window without
// side channels.
func EncodeEdit(object uint32, gen uint8, idx uint32) chunk.ContentID {
	return chunk.ContentID(editTag |
		uint64(object&0xFFFFFF)<<(editGenBits+editIdxBits) |
		uint64(gen)<<editIdxBits |
		uint64(idx)&editIdxMask)
}

// IsEdit reports whether id is edit-encoded.
func IsEdit(id chunk.ContentID) bool { return uint64(id)&editTag != 0 }

// DecodeEdit unpacks an edit-encoded ContentID.
func DecodeEdit(id chunk.ContentID) (object uint32, gen uint8, idx uint32) {
	v := uint64(id)
	return uint32(v >> (editGenBits + editIdxBits) & 0xFFFFFF),
		uint8(v >> editIdxBits & editGenMask),
		uint32(v & editIdxMask)
}

// objSeed derives the object's base-stream seed.
func objSeed(object uint32) uint64 {
	return mix64(0x9D0C0FFEE ^ uint64(object)*0x9E3779B97F4A7C15)
}

// EditDelta returns generation g's head edit as a net byte offset
// delta: positive = insert that many bytes, negative = delete.
// Generation 0 is the unedited base stream.
func EditDelta(object uint32, gen uint8) int {
	if gen == 0 {
		return 0
	}
	v := mix64(objSeed(object) ^ 0xED17ED17 ^ uint64(gen))
	if v&3 == 0 {
		return -int(1 + v>>8&7) // delete 1..8
	}
	return int(1 + v>>8&15) // insert 1..16
}

// EditOffset returns the cumulative net offset off(gen): the number of
// bytes by which generation gen's content is shifted right of the base
// stream (may be negative after net deletes).
func EditOffset(object uint32, gen uint8) int {
	off := 0
	for g := 1; g <= int(gen); g++ {
		off += EditDelta(object, uint8(g))
	}
	return off
}

// baseWord returns the 8 little-endian base-stream bytes at base
// offsets [8w, 8w+8).
func baseWord(seed uint64, w int64) uint64 {
	return mix64(seed + uint64(w+1)*baseStep)
}

// baseStep is the distance between the mix64 inputs of consecutive
// base words.
const baseStep uint64 = 0x9E3779B97F4A7C15

// baseByte returns base-stream byte r (r ≥ 0).
func baseByte(seed uint64, r int64) byte {
	return byte(baseWord(seed, r>>3) >> (uint(r&7) * 8))
}

// headByte returns byte q of generation gen's edited head region —
// bytes with no base-stream identity, unique to (object, gen).
func headByte(seed uint64, gen uint8, q int64) byte {
	return byte(mix64(seed ^ 0x48EAD<<40 ^ uint64(gen)<<32 ^ uint64(q)))
}

// MaterializeStream fills dst with stream(object, gen)[from : from+len(dst)).
// from must be ≥ 0; offsets past the generation's nominal length are
// valid (the base stream is infinite), which the splitter uses for
// bounded lookahead past a request window. The fill is word-granular
// off the base stream: whatever the cumulative edit offset, base words
// land whole at (unaligned) positions of dst, so there is nothing to
// shift — only the bytes before the first word boundary and after the
// last whole stripe go out one at a time. Four words (32 bytes) go out
// per iteration behind one bounds check; their mix64 inputs step by a
// constant from one counter, so the four finalizers overlap.
func MaterializeStream(object uint32, gen uint8, from int64, dst []byte) {
	seed := objSeed(object)
	off := int64(EditOffset(object, gen))
	i := 0
	// edited head region: tiny (≤ 16 bytes/generation), per-byte
	for q := from; q < off && i < len(dst); q++ {
		dst[i] = headByte(seed, gen, q)
		i++
	}
	// base region, shifted by the cumulative edit offset
	r := from + int64(i) - off
	for ; r&7 != 0 && i < len(dst); i, r = i+1, r+1 {
		dst[i] = baseByte(seed, r)
	}
	x := seed + uint64(r>>3+1)*baseStep // baseWord(seed, r>>3) is mix64(x)
	stripes := dst[i : i+(len(dst)-i)&^31]
	i, r = i+len(stripes), r+int64(len(stripes)) // where the tail resumes
	for ; len(stripes) >= 32; stripes = stripes[32:] {
		binary.LittleEndian.PutUint64(stripes, mix64(x))
		x += baseStep
		binary.LittleEndian.PutUint64(stripes[8:], mix64(x))
		x += baseStep
		binary.LittleEndian.PutUint64(stripes[16:], mix64(x))
		x += baseStep
		binary.LittleEndian.PutUint64(stripes[24:], mix64(x))
		x += baseStep
	}
	for ; i < len(dst); i, r = i+1, r+1 {
		dst[i] = baseByte(seed, r)
	}
}
