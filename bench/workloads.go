package main

import (
	"fmt"
	"time"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chaos"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// Serving-side constants shared by every serve-* workload: the shard
// count, the fixed open-loop arrival rate in requests per second of
// virtual time (about half the simulated capacity of eight shards), and
// the client-side submission batch podload uses.
const (
	serveShards = 8
	serveRate   = 1000.0
	submitBatch = 256
)

type kind int

const (
	kindReplay kind = iota // one POD engine driven by replay.Run
	kindCDC                // one POD engine per content-defined chunker, replay.Run
	kindServe              // eight POD shards behind internal/server
)

// spec names one workload: where its requests come from, how large it
// is, and which optional layers its configuration switches on.
type spec struct {
	name   string
	why    string
	kind   kind
	source string  // "mail", "homes", "mixed" or "shifted"
	scale  float64 // trace scale of a full run
	quick  float64 // trace scale under -quick
	// quickCap, when set, truncates the -quick trace to its first
	// requests: the shifted generator cannot go below two objects of
	// eight 4 MiB generations, which is too much for a smoke test.
	quickCap int
	tier     bool // global fingerprint tier + background dedup on every shard
	stream   bool // per-stream index apportionment on every shard
	// exact reports whether every virtual-time figure repeats to the
	// last digit for a fixed seed. Hint delivery in the tier rides
	// goroutine scheduling, so serve-tier alone is not.
	exact bool
}

// specs lists the workloads in reporting order. Scales are sized so one
// pass of the trace takes 0.4–1.6 s on a two-core box: the driver runs
// each workload some twenty times against an hour-long cap, and a run
// sets up three times, so passes have to stay short. Cache budgets
// scale with the trace (experiments.BuildConfig), which keeps the
// working-set-to-cache ratios of the full-size traces.
var specs = []spec{
	{
		name: "replay-mail", kind: kindReplay, source: "mail", scale: 0.3, quick: 0.02, exact: true,
		why: "76% fully redundant large writes with recent sources: index hits, Cat-1 absorption and map set + journal dominate; allocator and RAID do little",
	},
	{
		name: "replay-homes", kind: kindReplay, source: "homes", scale: 1, quick: 0.05, exact: true,
		why: "48% scattered partial redundancy and the smallest cache: index misses, evictions, Cat-2 write-through, fragmented allocation and RAID5 read-modify-write dominate",
	},
	{
		name: "serve-mixed", kind: kindServe, source: "mixed", scale: 0.25, quick: 0.02, exact: true,
		why: "three tenants on 8 shards, open loop at 1000 req/s: cheapest engine work, so router, batching, channel hand-off and drain are their largest share; only workload a second core helps",
	},
	{
		name: "serve-tier", kind: kindServe, source: "mixed", scale: 0.2, quick: 0.02, tier: true,
		why: "same trace with the global fingerprint tier and background dedup on every shard: the two side actors do most of the work here and none anywhere else",
	},
	{
		name: "serve-streams", kind: kindServe, source: "mixed", scale: 0.25, quick: 0.02, stream: true, exact: true,
		why: "same trace with per-stream index apportionment: locality sampling and per-stream sub-indexes are on every chunk's path here and absent everywhere else",
	},
	{
		name: "cdc-shifted", kind: kindCDC, source: "shifted", scale: 4.0 / 48, quick: 2.0 / 48, quickCap: 140, exact: true,
		why: "byte-shifted snapshot generations through gear then seqcdc: materialise + landmark sweep is >90% of host time; fixed-4K removes 0 writes here, CDC ~97%; the one workload that fits its cache",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// tenantIDBits mirrors workload.MixedTrace: tenant i's content IDs are
// offset by i<<40 so equal IDs from different tenants never alias.
const tenantIDBits = 40

// mixedTrace rebuilds workload.MixedTrace with seed XORed into every
// tenant profile's seed: the three Table II tenants, each in a disjoint
// LBA region and content-ID space, merged by arrival time. Seed 0
// reproduces workload.MixedTrace request for request (bench_test.go
// holds it to that).
func mixedTrace(scale float64, seed int64) (*trace.Trace, int, workload.MixedDims) {
	profiles := workload.Profiles()
	tenants := make([]*trace.Trace, len(profiles))
	var dims workload.MixedDims
	var lbaBase uint64
	warmFrac := 0.0
	for i, p := range profiles {
		p.Seed ^= seed
		tr, _ := workload.Generate(p, scale)
		idOff := chunk.ContentID(uint64(i) << tenantIDBits)
		for j := range tr.Requests {
			r := &tr.Requests[j]
			r.LBA += lbaBase
			for k := range r.Content {
				r.Content[k] += idOff
			}
		}
		tenants[i] = tr
		lbaBase += p.FootprintChunks
		dims.MemoryBytes += p.MemoryBytes
		if p.WarmupFrac > warmFrac {
			warmFrac = p.WarmupFrac
		}
	}
	dims.FootprintChunks = lbaBase
	merged := trace.Merge("mixed", tenants...)
	return merged, int(float64(len(merged.Requests)) * warmFrac), dims
}

// shiftedObjectStride spaces the object-id offsets of successive seeds
// so that no two seeds share an object at any scale this benchmark
// uses (at most 48 objects per trace).
const shiftedObjectStride = 1009

// shiftedTrace is workload.ShiftedSnapshot with every object id moved
// by a seed-dependent offset. The generator's request structure
// (timing, extents, read-backs) has a fixed seed of its own; object
// identity is what decides the materialised bytes, and with them every
// chunk boundary and fingerprint, so that is where the seed goes.
func shiftedTrace(scale float64, seed int64) (*trace.Trace, int, workload.MixedDims) {
	tr, warm, dims := workload.ShiftedSnapshot(scale)
	off := uint32(uint64(seed) * shiftedObjectStride)
	if off&0xFFFFFF == 0 {
		return tr, warm, dims
	}
	for i := range tr.Requests {
		c := tr.Requests[i].Content
		for j, id := range c {
			obj, gen, idx := cdc.DecodeEdit(id)
			c[j] = cdc.EncodeEdit(obj+off, gen, idx)
		}
	}
	return tr, warm, dims
}

// input is everything a workload's passes consume: the generated
// requests, the platform they are sized for, and the reference the
// read-back check compares against.
type input struct {
	spec   spec
	scale  float64
	tr     *trace.Trace
	warmup int
	prof   workload.Profile // platform dimensions for experiments.BuildConfig
	router server.Router    // serve-*: LBA → shard

	genTime time.Duration

	writes, reads   int   // whole trace
	mWrites, mReads int   // measured portion (index ≥ warmup)
	chunks          int64 // 4 KiB blocks named by all requests
	distinctWritten int64 // distinct logical 4 KiB blocks written

	// oracle is the LBA → content reference built from the trace alone.
	// nil for cdc-shifted: under content-defined chunking the stored
	// identities are hashes of materialised bytes, which the trace's
	// ids no longer name.
	oracle *chaos.Oracle
}

// buildInput generates the workload's trace from the seed and derives
// the reference map and the trace-shape figures from it.
func buildInput(s spec, o options) (*input, error) {
	scale, seed := s.scaleFor(o), o.seed
	in := &input{spec: s, scale: scale}
	start := time.Now()
	switch s.source {
	case "mail", "homes":
		p, ok := workload.ByName(s.source)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", s.source)
		}
		p.Seed ^= seed
		in.tr, in.warmup = workload.Generate(p, scale)
		in.prof = p
	case "mixed":
		var dims workload.MixedDims
		in.tr, in.warmup, dims = mixedTrace(scale, seed)
		in.prof = workload.Profile{Name: "mixed", FootprintChunks: dims.FootprintChunks, MemoryBytes: dims.MemoryBytes}
	case "shifted":
		var dims workload.MixedDims
		in.tr, in.warmup, dims = shiftedTrace(scale, seed)
		in.prof = workload.Profile{Name: "shifted", FootprintChunks: dims.FootprintChunks, MemoryBytes: dims.MemoryBytes}
	default:
		return nil, fmt.Errorf("unknown trace source %q", s.source)
	}
	in.genTime = time.Since(start)
	if o.quick && s.quickCap > 0 && len(in.tr.Requests) > s.quickCap {
		in.tr.Requests = in.tr.Requests[:s.quickCap]
	}
	if len(in.tr.Requests) == 0 {
		return nil, fmt.Errorf("%s: empty trace", s.name)
	}

	owner := func(uint64) int { return 0 }
	if s.kind == kindServe {
		in.router = server.NewRouter(serveShards, 0)
		owner = in.router.Shard
	}
	if s.kind != kindCDC {
		in.oracle = chaos.NewOracle(owner)
	}
	written := make([]uint64, (in.prof.FootprintChunks+64)/64+1)
	for i := range in.tr.Requests {
		r := &in.tr.Requests[i]
		in.chunks += int64(r.N)
		if r.Op == trace.Read {
			in.reads++
			if i >= in.warmup {
				in.mReads++
			}
			continue
		}
		in.writes++
		if i >= in.warmup {
			in.mWrites++
		}
		for lba := r.LBA; lba < r.LBA+uint64(r.N); lba++ {
			if w := lba >> 6; int(w) < len(written) && written[w]&(1<<(lba&63)) == 0 {
				written[w] |= 1 << (lba & 63)
				in.distinctWritten++
			}
		}
		if in.oracle != nil {
			// every write is expected to be acknowledged (the workloads
			// inject no faults); one that is not is counted as failed
			req := api.FromTrace(*r)
			in.oracle.RecordWrite(&req, owner(r.LBA))
		}
	}
	return in, nil
}

// verify reads every block the reference expects back through read and
// returns the number of blocks checked and the number that were lost or
// held the wrong content.
func (in *input) verify(read func(lba uint64) (uint64, bool)) (checked, bad int) {
	if in.oracle == nil {
		return 0, 0
	}
	v, n := in.oracle.Check(read)
	return n, len(v)
}
