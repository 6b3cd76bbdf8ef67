// Package chunk defines the data-chunk and fingerprint model used by
// every deduplication engine in this repository.
//
// POD performs subfile deduplication at a fixed chunk granularity
// (4 KB in the paper). A write request is split into chunks; each chunk
// is fingerprinted; fingerprint equality is the dedup criterion.
//
// Two fingerprinting modes are provided:
//
//   - SHA1Fingerprinter hashes real payload bytes — used by correctness
//     tests, which materialize deterministic payloads per content ID and
//     verify read-your-writes through the physical store.
//   - SyntheticFingerprinter derives the fingerprint from the chunk's
//     content ID directly — used by large trace replays where hashing
//     millions of 4 KB buffers would dominate run time without changing
//     any dedup decision (two chunks share a fingerprint iff they share
//     a content ID in both modes).
//
// Nothing here starts a goroutine: fingerprints and payloads are
// computed on the caller's, and the simulator charges fingerprinting a
// fixed virtual cost per chunk however the host spends its time.
package chunk

import (
	"crypto/sha1"
	"encoding/binary"
)

// Size is the deduplication chunk size in bytes (the paper uses 4 KB).
const Size = 4096

// ContentID identifies the logical content of one chunk. The synthetic
// trace generator draws ContentIDs from popularity distributions; two
// chunks with equal ContentID have byte-identical payloads.
type ContentID uint64

// Fingerprint is a 20-byte content hash (SHA-1 sized, as in most
// deduplication literature including the POD paper's 20-byte entries).
type Fingerprint [20]byte

// Chunk is one fixed-size unit of write data flowing down the I/O path.
type Chunk struct {
	Content ContentID   // logical content identity
	FP      Fingerprint // computed fingerprint
	Data    []byte      // payload; nil in synthetic (ID-only) replays
}

// Payload deterministically materializes the canonical Size-byte
// payload for a content ID. The construction is a simple xorshift64*
// stream seeded by the ID, so equal IDs yield equal bytes and distinct
// IDs yield distinct bytes with overwhelming probability.
func Payload(id ContentID) []byte {
	buf := make([]byte, Size)
	FillPayload(id, buf)
	return buf
}

// FillPayload writes the canonical payload for id into buf, which must
// be exactly Size bytes long.
func FillPayload(id ContentID, buf []byte) {
	if len(buf) != Size {
		panic("chunk: FillPayload buffer must be chunk.Size bytes")
	}
	x := uint64(id)*2685821657736338717 + 1442695040888963407
	for off := 0; off < Size; off += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(buf[off:], x*2685821657736338717)
	}
}

// Fingerprinter computes a chunk's fingerprint. Implementations must be
// safe for concurrent use.
type Fingerprinter interface {
	// Fingerprint computes the fingerprint of c. Implementations may
	// use c.Data (content hashing) or c.Content (synthetic mode).
	Fingerprint(c *Chunk) Fingerprint
}

// SHA1Fingerprinter hashes the chunk payload with SHA-1. If the chunk
// carries no payload it materializes the canonical payload for the
// content ID first, so both trace modes produce identical fingerprints.
type SHA1Fingerprinter struct{}

// Fingerprint implements Fingerprinter.
func (SHA1Fingerprinter) Fingerprint(c *Chunk) Fingerprint {
	data := c.Data
	if data == nil {
		data = Payload(c.Content)
	}
	return Fingerprint(sha1.Sum(data))
}

// SyntheticFingerprinter derives a fingerprint from the content ID with
// a cheap mixing function. Used for large ID-only replays.
type SyntheticFingerprinter struct{}

// Fingerprint implements Fingerprinter: three rounds of the MurmurHash3
// finalizer, a golden-ratio step apart, fill bytes 0–7, 8–15 and 16–19.
func (SyntheticFingerprinter) Fingerprint(c *Chunk) (f Fingerprint) {
	x := fmix64(uint64(c.Content))
	binary.LittleEndian.PutUint64(f[0:], x)
	x = fmix64(x + 0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(f[8:], x)
	x = fmix64(x + 0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint32(f[16:], uint32(x))
	return f
}

// fmix64 is the 64-bit MurmurHash3 finalizer.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// SplitInto breaks a request's content IDs into chunks and fingerprints
// each with fp; payloads are materialized only when materialize is set.
// It reuses dst's backing array when it has the capacity, so a replay
// loop allocates its chunk buffer once instead of once per write
// request. Every field of every returned chunk is (re)initialized —
// stale fingerprints or payloads from a previous use of dst never leak
// through. A nil fp skips fingerprinting (the caller will run a
// HashEngine over the chunks, which also charges the modeled latency).
func SplitInto(dst []Chunk, ids []ContentID, fp Fingerprinter, materialize bool) []Chunk {
	if cap(dst) < len(ids) {
		dst = make([]Chunk, len(ids))
	} else {
		dst = dst[:len(ids)]
	}
	for i, id := range ids {
		dst[i] = Chunk{Content: id}
		if materialize {
			dst[i].Data = Payload(id)
		}
		if fp != nil {
			dst[i].FP = fp.Fingerprint(&dst[i])
		}
	}
	return dst
}
