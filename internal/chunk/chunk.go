// Package chunk defines the data-chunk and fingerprint model used by
// every deduplication engine in this repository.
//
// POD performs subfile deduplication at a fixed chunk granularity
// (4 KB in the paper). A write request is split into chunks; each chunk
// is fingerprinted where it is cut; fingerprint equality is the dedup
// criterion.
//
// A fingerprint is one function of the chunk's content ID,
// ContentID.Fingerprint: two chunks share a fingerprint iff they share
// a content ID, which is all a dedup decision reads from a SHA-1 of the
// payload, without hashing 4 KB per chunk. No engine hashes payload
// bytes: what SHA-1 costs is measured once (the overhead table hashes
// Payload with crypto/sha1) and charged as a fixed virtual
// DefaultChunkTimeUS per 4 KB of content, however the host spends its
// time.
//
// Nothing here starts a goroutine.
package chunk

import "encoding/binary"

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
	FP      Fingerprint // Content.Fingerprint(), set where the chunk is cut
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

// Fingerprint is the fingerprint of the content id names: three rounds
// of the MurmurHash3 finalizer, a golden-ratio step apart, fill bytes
// 0–7, 8–15 and 16–19. The finalizer is a bijection, so the first
// round alone makes the function injective: equal fingerprints mean
// equal content.
func (id ContentID) Fingerprint() (f Fingerprint) {
	x := fmix64(uint64(id))
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

// Fingerprinter is the type of engine.Config.Fingerprinter, which the
// benchmark harness hands to NewHashEngine. SyntheticFingerprinter is
// its one implementation: there is no other fingerprint to choose.
type Fingerprinter interface {
	Fingerprint(c *Chunk) Fingerprint
}

// SyntheticFingerprinter fingerprints a chunk by its content ID.
type SyntheticFingerprinter struct{}

// Fingerprint implements Fingerprinter: c.Content.Fingerprint().
func (SyntheticFingerprinter) Fingerprint(c *Chunk) Fingerprint { return c.Content.Fingerprint() }

// SplitInto breaks a request's content IDs into chunks, fingerprinted
// unless fp is nil (the benchmark harness then runs a HashEngine over
// them). fp is nil or SyntheticFingerprinter, and materialize must be
// false: chunks carry no payload (both parameters stay only so the
// harness's call keeps compiling). It reuses dst's backing array when it
// has the capacity, so a replay loop allocates its chunk buffer once
// instead of once per write request; every field of every returned
// chunk is (re)initialized.
func SplitInto(dst []Chunk, ids []ContentID, fp Fingerprinter, materialize bool) []Chunk {
	if _, ok := fp.(SyntheticFingerprinter); (fp != nil && !ok) || materialize {
		panic("chunk: SplitInto fingerprints by content ID and carries no payloads")
	}
	if cap(dst) < len(ids) {
		dst = make([]Chunk, len(ids))
	} else {
		dst = dst[:len(ids)]
	}
	for i, id := range ids {
		dst[i] = Chunk{Content: id}
		if fp != nil {
			dst[i].FP = id.Fingerprint()
		}
	}
	return dst
}
