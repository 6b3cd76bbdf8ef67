package workload

import (
	"math/rand"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Shifted-content snapshot workload: the trace family built for the
// content-defined chunking axis. Each tenant object is a snapshot-like
// byte stream rewritten across generations, where every generation
// prepends a small head edit (insert 1–16 / delete 1–8 bytes, see
// internal/cdc's materializer) that shifts ALL later bytes. Every
// (object, generation, block) ContentID is unique, so fixed-4K
// chunking finds zero redundancy by construction — while at the byte
// level consecutive generations are near-identical at shifted offsets,
// which Gear/SeqCDC chunking recovers. The gap between those two
// outcomes on the same trace is the whole experiment.
//
// Generation is fully deterministic in scale alone.

const (
	// shiftedGens is the snapshot chain length per object; generation 0
	// is the cold full write, generations 1+ are the shifted rewrites
	// CDC should absorb.
	shiftedGens = 8
	// shiftedBlocks is each object stream's length in 4 KiB blocks
	// (4 MiB per generation).
	shiftedBlocks = 1024
	// shiftedWindow is the write request size in blocks (128 KiB
	// extents, comfortably above the iDedup sequence threshold).
	shiftedWindow = 32
	// shiftedStride is the LBA slot spacing between request extents.
	// Under CDC one request emits up to MaxChunksPerSlots(window)
	// chunks (82 at the default 2k/16k bounds), each occupying one
	// mapped slot from the extent base, so extents are spaced with
	// headroom: 3·window + 8 = 104 slots.
	shiftedStride = 3*shiftedWindow + 8
	// shiftedReadFrac reads back prior-generation extents between
	// writes, keeping the read path honest under remapped CDC slots.
	shiftedReadFrac = 0.20
	// shiftedMemoryBytes sizes the storage cache so the fingerprint
	// index holds roughly one full generation of chunk fingerprints at
	// scale 1 (~50k chunks vs a 128k-entry index partition).
	shiftedMemoryBytes = 16 << 20

	shiftedReqGapUS  = 200 // spacing between requests in a burst, µs
	shiftedReqChunks = shiftedBlocks / shiftedWindow
)

// ShiftedObjects reports the tenant-object count at the given scale.
func ShiftedObjects(scale float64) int {
	n := int(48*scale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// ShiftedSnapshot generates the shifted-content snapshot trace:
// generation 0 of every object is written cold, then generations 1+
// rewrite every object to fresh LBA extents (snapshot-style, so
// redundancy must be found by fingerprint, not by LBA overwrite),
// interleaved with reads of prior-generation extents. Returns the
// trace, the warm-up request count (all of generation 0), and the
// platform dimensions.
func ShiftedSnapshot(scale float64) (*trace.Trace, int, MixedDims) {
	objects := ShiftedObjects(scale)
	rng := rand.New(rand.NewSource(0x5417F7ED))
	tr := &trace.Trace{Name: "shifted"}

	extentBase := func(obj, gen, req int) uint64 {
		return uint64(((obj*shiftedGens+gen)*shiftedReqChunks + req) * shiftedStride)
	}

	now := sim.Time(0)
	warmup := 0
	for gen := 0; gen < shiftedGens; gen++ {
		for obj := 0; obj < objects; obj++ {
			for r := 0; r < shiftedReqChunks; r++ {
				ids := make([]chunk.ContentID, shiftedWindow)
				for i := range ids {
					ids[i] = cdc.EncodeEdit(uint32(obj), uint8(gen), uint32(r*shiftedWindow+i))
				}
				tr.Requests = append(tr.Requests, trace.Request{
					Time: now, Op: trace.Write,
					LBA: extentBase(obj, gen, r), N: shiftedWindow, Content: ids,
				})
				now = now.Add(sim.Duration(shiftedReqGapUS + rng.Int63n(shiftedReqGapUS)))
				if gen == 0 {
					warmup++
					continue
				}
				// read back part of a prior generation's extent
				if rng.Float64() < shiftedReadFrac {
					rGen := rng.Intn(gen)
					rReq := rng.Intn(shiftedReqChunks)
					tr.Requests = append(tr.Requests, trace.Request{
						Time: now, Op: trace.Read,
						LBA: extentBase(obj, rGen, rReq), N: 8,
					})
					now = now.Add(sim.Duration(shiftedReqGapUS))
				}
			}
		}
		// idle gap between snapshot rounds (lets background machinery
		// and the adaptive cache settle, like the Table II bursts)
		now = now.Add(50 * sim.Second)
	}

	return tr, warmup, ShiftedDims(scale)
}

// ShiftedDims reports the platform dimensions of the shifted trace at
// the given scale without generating it.
func ShiftedDims(scale float64) MixedDims {
	return MixedDims{
		FootprintChunks: uint64(ShiftedObjects(scale)*shiftedGens*shiftedReqChunks*shiftedStride) + shiftedStride,
		MemoryBytes:     shiftedMemoryBytes,
	}
}
