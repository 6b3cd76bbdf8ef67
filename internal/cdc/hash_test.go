package cdc

import (
	"crypto/sha1"
	"encoding/binary"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
)

// bytesHashRef is bytesHash's definition written lane by lane: lane l
// absorbs word l of every whole 32-byte stripe, the lanes fold in
// order, and what follows the last stripe chains a word, then a
// partial word, at a time.
func bytesHashRef(b []byte) uint64 {
	le := binary.LittleEndian
	h := uint64(len(b))*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	stripes := len(b) / 32
	var lane [4]uint64
	for l, seed := range []uint64{laneSeed0, laneSeed1, laneSeed2, laneSeed3} {
		lane[l] = h ^ seed
		for s := 0; s < stripes; s++ {
			lane[l] = (lane[l] ^ le.Uint64(b[32*s+8*l:])) * 0x9E3779B97F4A7C15
			lane[l] ^= lane[l] >> 32
		}
	}
	h = mix64(mix64(mix64(mix64(lane[0])^lane[1])^lane[2]) ^ lane[3])
	for b = b[32*stripes:]; len(b) > 0; b = b[min(8, len(b)):] {
		if len(b) >= 8 {
			h = mix64(h ^ le.Uint64(b))
			continue
		}
		var tail [8]byte
		copy(tail[:], b)
		h = mix64(h ^ le.Uint64(tail[:]) ^ 1<<63)
	}
	return mix64(h)
}

// TestBytesHashMatchesReference pins the unrolled hash to its
// definition at every length that ends a stripe loop, a word loop and
// a byte tail differently, and around the fixed-4K block size.
func TestBytesHashMatchesReference(t *testing.T) {
	buf := make([]byte, 4096+10)
	testFill(buf, 0xC0FFEE)
	check := func(n int) {
		if got, want := bytesHash(buf[:n]), bytesHashRef(buf[:n]); got != want {
			t.Fatalf("len %d: bytesHash = %#x, lane-by-lane reference = %#x", n, got, want)
		}
	}
	for n := 0; n <= 200; n++ {
		check(n)
	}
	for n := 4096 - 9; n <= 4096+9; n++ {
		check(n)
	}
}

// TestBytesHashSensitivity: every single-bit change of a small buffer
// and every single-byte change of a chunk-sized one moves the hash (a
// lane step, the fold and the tail chain are bijections, so this holds
// by construction, not by luck); so does moving a word to another lane
// of its stripe or to the same lane of another stripe; and a buffer,
// its proper prefixes and its zero-extensions all hash apart.
func TestBytesHashSensitivity(t *testing.T) {
	small := make([]byte, 256)
	testFill(small, 1)
	base := bytesHash(small)
	for bit := 0; bit < len(small)*8; bit++ {
		small[bit/8] ^= 1 << (bit % 8)
		if bytesHash(small) == base {
			t.Fatalf("flipping bit %d of a 256-byte buffer leaves the hash unchanged", bit)
		}
		small[bit/8] ^= 1 << (bit % 8)
	}

	big := make([]byte, 16384)
	testFill(big, 2)
	base = bytesHash(big)
	for i := range big {
		big[i] ^= 0xFF
		if bytesHash(big) == base {
			t.Fatalf("changing byte %d of a 16 KiB buffer leaves the hash unchanged", i)
		}
		big[i] ^= 0xFF
	}

	swapWords := func(a, b int) {
		var tmp [8]byte
		copy(tmp[:], big[a:a+8])
		copy(big[a:a+8], big[b:b+8])
		copy(big[b:b+8], tmp[:])
	}
	for _, sw := range []struct {
		what string
		a, b int
	}{
		{"lanes 0 and 1 of one stripe", 64, 72},
		{"lanes 1 and 3 of one stripe", 32*7 + 8, 32*7 + 24},
		{"lane 2 of adjacent stripes", 32*3 + 16, 32*4 + 16},
		{"lane 0 of distant stripes", 0, 32 * 400},
	} {
		swapWords(sw.a, sw.b)
		if bytesHash(big) == base {
			t.Fatalf("swapping %s leaves the hash unchanged", sw.what)
		}
		swapWords(sw.a, sw.b)
	}

	seen := map[uint64]string{}
	note := func(what string, h uint64) {
		if prev, dup := seen[h]; dup {
			t.Fatalf("%s and %s share hash %#x", prev, what, h)
		}
		seen[h] = what
	}
	note("the buffer", bytesHash(small))
	for _, n := range []int{0, 1, 8, 31, 32, 33, 64, 255} {
		note("its prefix", bytesHash(small[:n]))
	}
	zeros := make([]byte, 96)
	for _, n := range []int{1, 7, 8, 31, 32, 33, 64, 96} {
		note("a run of zeros", bytesHash(zeros[:n]))
		note("its zero-extension", bytesHash(append(small[:256:256], zeros[:n]...)))
	}
}

// TestBytesHashDistinctOnShiftedTrace replays the benchmark's CDC
// workload shape — 4 objects × 8 generations of 4 MiB streams written
// in 128 KiB requests, generation by generation — through both
// chunkers and checks every emitted ContentID against the bytes it was
// derived from: the ID is bytesHash of exactly the chunk the cut list
// delimits, and over all chunks the number of distinct IDs equals the
// number of distinct contents as SHA-1 judges them.
func TestBytesHashDistinctOnShiftedTrace(t *testing.T) {
	const objects, gens, requests, window = 4, 8, 32, 32
	for _, algo := range []Algo{Gear, SeqCDC} {
		s := NewSplitter(Params{Algo: algo})
		ids := map[chunk.ContentID]struct{}{}
		contents := map[[sha1.Size]byte]struct{}{}
		var dst []chunk.Chunk
		total := 0
		for gen := 0; gen < gens; gen++ {
			for obj := 0; obj < objects; obj++ {
				for r := 0; r < requests; r++ {
					dst, _ = s.Split(dst[:0], editWindow(uint32(obj), uint8(gen), r*window, window))
					// the request's chunks are the spans starting in its window
					wb0 := int(int64(r*window)*slotBytes - s.held.from)
					k := 0
					for int(s.cuts[k]) < wb0 {
						k++
					}
					for _, c := range dst {
						content := s.buf[s.cuts[k]:s.cuts[k+1]]
						if c.Content != chunk.ContentID(bytesHash(content)) {
							t.Fatalf("%v %d/%d request %d: chunk at %d is not the hash of its bytes", algo, obj, gen, r, s.cuts[k])
						}
						ids[c.Content] = struct{}{}
						contents[sha1.Sum(content)] = struct{}{}
						k++
					}
					total += len(dst)
				}
			}
		}
		if len(ids) != len(contents) {
			t.Fatalf("%v: %d chunks hold %d distinct contents but %d distinct ContentIDs", algo, total, len(contents), len(ids))
		}
		if len(ids) == total || len(ids) < total/gens {
			t.Fatalf("%v: %d distinct of %d chunks — the shifted trace should dedup most, not all or none", algo, len(ids), total)
		}
	}
}
