// Package workload generates the synthetic FIU-like traces this
// reproduction substitutes for the original (non-redistributable)
// SyLab web-vm / homes / mail traces.
//
// Each profile matches the published Table II characteristics (request
// count, write ratio, mean request size) and reproduces the structural
// properties the paper's analysis attributes to the workloads:
//
//   - small writes dominate and carry most of the redundancy (Fig. 1);
//   - I/O redundancy exceeds capacity redundancy because a fraction of
//     redundant writes re-target the same LBA (Fig. 2);
//   - requests arrive in alternating read-intensive and write-intensive
//     bursts separated by idle gaps (§II-B's I/O burstiness), which is
//     what gives iCache's adaptation something to adapt to;
//   - redundant content arrives in three flavours: whole rewrites of
//     previously written extents (sequential duplicates — categories 1
//     and 3), scattered single-chunk duplicates inside otherwise new
//     requests (the category-2 poison that hurts Full-Dedupe), and
//     fresh content.
//
// Generation is fully deterministic from the profile's seed.
package workload

import (
	"math/rand"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// SizeWeight is one entry of a request-size mixture.
type SizeWeight struct {
	Chunks int
	Weight int
}

// Profile parameterizes one synthetic trace.
type Profile struct {
	Name string
	Seed int64

	IOs        int     // request count at scale 1.0
	WriteRatio float64 // fraction of requests that are writes

	WriteSizes []SizeWeight // write request sizes
	ReadSizes  []SizeWeight // read request sizes

	// Write content mixture (fractions of write requests; the rest is
	// fresh content).
	FullDupFrac    float64 // rewrite of a previous extent's content
	PartialScatter float64 // new request with scattered duplicate chunks
	ScatterDupProb float64 // per-chunk duplicate probability inside scattered requests

	// Of the full rewrites, the fraction that re-target their original
	// LBA (same-location redundancy: I/O- but not capacity-redundant).
	SameLBAFrac float64

	// WriteDeepFrac is the probability that a rewrite draws its source
	// uniformly from the whole retained history instead of the recency
	// head — the knob controlling how often duplicate content arrives
	// cold (hot-index miss).
	WriteDeepFrac float64

	FootprintChunks uint64 // logical address space
	MemoryBytes     int64  // storage-cache DRAM for this trace (§IV-A)

	// Read-path locality: reads draw from a geometric recency head and,
	// with probability ReadDeepFrac, uniformly from the last ReadWindow
	// written extents. The window sizes the read working set relative
	// to the read cache (Figure 3's read-side sensitivity).
	ReadWindow   int
	ReadDeepFrac float64

	// Burst model: write-heavy phases of PhaseLen requests alternate
	// with read-heavy phases of ReadPhaseLen requests (0 = PhaseLen);
	// requests within a burst arrive ~BurstGapUS apart, with IdleGapUS
	// pauses between phases.
	PhaseLen     int
	ReadPhaseLen int
	ReadPhase    float64 // write fraction during read-heavy phases
	WritePhase   float64 // write fraction during write-heavy phases
	BurstGapUS   int
	IdleGapUS    int
	WarmupFrac   float64 // leading fraction excluded from measurement
}

// segment remembers a written extent for later rewrites and reads.
type segment struct {
	lba uint64
	ids []chunk.ContentID
}

// Generator produces requests from a profile.
type Generator struct {
	p    Profile
	rng  *rand.Rand
	next chunk.ContentID

	segments []segment
	maxSegs  int
	scale    float64

	allocLBA uint64 // bump allocator over the logical space
}

// NewScaled returns a generator whose retained-history ring and read
// window shrink with the trace scale, so cache-pressure ratios (index
// capacity vs duplicate-source depth, read cache vs read working set)
// are preserved in sub-sampled runs.
func NewScaled(p Profile, scale float64) *Generator {
	segs := int(16384 * scale)
	if segs < 512 {
		segs = 512
	}
	if segs > 16384 {
		segs = 16384
	}
	return &Generator{
		p:       p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		next:    1,
		maxSegs: segs,
		scale:   scale,
	}
}

// pickSize draws from a size mixture.
func (g *Generator) pickSize(mix []SizeWeight) int {
	total := 0
	for _, sw := range mix {
		total += sw.Weight
	}
	v := g.rng.Intn(total)
	for _, sw := range mix {
		if v < sw.Weight {
			return sw.Chunks
		}
		v -= sw.Weight
	}
	return mix[len(mix)-1].Chunks
}

// segmentAt picks a segment with a geometric recency head and, with
// probability deepFrac, a uniform tail over the last window segments
// (window ≤ 0 means the whole retained history). Temporal locality with
// a long tail is what re-references content whose fingerprint has
// fallen out of the hot index (ghost hits, cold full-index lookups) and
// data that has left the read cache (read misses) — the pressure every
// cache-dependent effect in the paper relies on.
func (g *Generator) segmentAt(deepFrac float64, window int) *segment {
	n := len(g.segments)
	if n == 0 {
		return nil
	}
	if g.rng.Float64() < deepFrac {
		w := window
		if w <= 0 || w > n {
			w = n
		}
		return &g.segments[n-w+g.rng.Intn(w)]
	}
	back := 0
	for back < n-1 && g.rng.Float64() < 0.7 {
		back += g.rng.Intn(8) + 1
	}
	if back >= n {
		back = n - 1
	}
	return &g.segments[n-1-back]
}

// recentSegment is the write-path source distribution: deep tail over
// the whole history, profile-controlled.
func (g *Generator) recentSegment() *segment {
	return g.segmentAt(g.p.WriteDeepFrac, 0)
}

// readSegment is the read-path distribution: a sharper head plus a
// mid-range window sized so that read-cache capacity meaningfully moves
// the hit ratio (Figure 3's read-side gradient).
func (g *Generator) readSegment() *segment {
	window, deep := g.p.ReadWindow, g.p.ReadDeepFrac
	if window == 0 {
		window = 3000
	}
	if deep == 0 {
		deep = 0.4
	}
	window = int(float64(window) * g.scale)
	if window < 128 {
		window = 128
	}
	return g.segmentAt(deep, window)
}

func (g *Generator) freshLBA(n int) uint64 {
	if g.allocLBA+uint64(n) >= g.p.FootprintChunks {
		g.allocLBA = g.rng.Uint64() % (g.p.FootprintChunks / 4)
	}
	lba := g.allocLBA
	g.allocLBA += uint64(n)
	return lba
}

func (g *Generator) freshContent(n int) []chunk.ContentID {
	ids := make([]chunk.ContentID, n)
	for i := range ids {
		ids[i] = g.next
		g.next++
	}
	return ids
}

func (g *Generator) remember(lba uint64, ids []chunk.ContentID) {
	g.segments = append(g.segments, segment{lba: lba, ids: ids})
	if len(g.segments) > g.maxSegs {
		g.segments = g.segments[len(g.segments)-g.maxSegs:]
	}
}

// genWrite produces one write request.
func (g *Generator) genWrite(tm sim.Time) trace.Request {
	n := g.pickSize(g.p.WriteSizes)
	roll := g.rng.Float64()
	switch {
	case roll < g.p.FullDupFrac:
		// whole rewrite of a previous extent's content; first-fit
		// candidate search keeps the size distribution from being
		// collapsed by truncation
		var seg *segment
		for try := 0; try < 8; try++ {
			cand := g.recentSegment()
			if cand == nil {
				break
			}
			if seg == nil {
				seg = cand
			}
			if len(cand.ids) >= n {
				seg = cand
				break
			}
		}
		if seg != nil {
			ids := seg.ids
			if len(ids) > n {
				off := g.rng.Intn(len(ids) - n + 1)
				ids = ids[off : off+n]
			}
			cp := append([]chunk.ContentID(nil), ids...)
			lba := seg.lba
			if g.rng.Float64() >= g.p.SameLBAFrac {
				lba = g.freshLBA(len(cp))
			}
			g.remember(lba, cp)
			return trace.Request{Time: tm, Op: trace.Write, LBA: lba, N: len(cp), Content: cp}
		}
		fallthrough
	case roll < g.p.FullDupFrac+g.p.PartialScatter:
		// new request salted with scattered duplicate chunks
		ids := make([]chunk.ContentID, n)
		for i := range ids {
			if g.rng.Float64() < g.p.ScatterDupProb && len(g.segments) > 0 {
				seg := &g.segments[g.rng.Intn(len(g.segments))]
				ids[i] = seg.ids[g.rng.Intn(len(seg.ids))]
			} else {
				ids[i] = g.next
				g.next++
			}
		}
		lba := g.freshLBA(n)
		g.remember(lba, ids)
		return trace.Request{Time: tm, Op: trace.Write, LBA: lba, N: n, Content: ids}
	default:
		ids := g.freshContent(n)
		lba := g.freshLBA(n)
		g.remember(lba, ids)
		return trace.Request{Time: tm, Op: trace.Write, LBA: lba, N: n, Content: ids}
	}
}

// genRead produces one read request over previously written data.
func (g *Generator) genRead(tm sim.Time) trace.Request {
	n := g.pickSize(g.p.ReadSizes)
	// first-fit candidate search: take the first extent at least as
	// large as the drawn size so big reads are not collapsed onto small
	// extents, without biasing toward the largest extents
	var seg *segment
	for try := 0; try < 8; try++ {
		cand := g.readSegment()
		if cand == nil {
			break
		}
		if seg == nil {
			seg = cand
		}
		if len(cand.ids) >= n {
			seg = cand
			break
		}
	}
	if seg == nil {
		// nothing written yet: degenerate read of block 0
		return trace.Request{Time: tm, Op: trace.Read, LBA: 0, N: 1}
	}
	off := 0
	if g.rng.Float64() < 0.85 {
		if n > len(seg.ids) {
			n = len(seg.ids)
		}
		if len(seg.ids) > n {
			off = g.rng.Intn(len(seg.ids) - n + 1)
		}
	} else if len(seg.ids) > 1 {
		off = g.rng.Intn(len(seg.ids))
	}
	lba := seg.lba + uint64(off)
	if lba+uint64(n) > g.p.FootprintChunks {
		lba = g.p.FootprintChunks - uint64(n)
	}
	return trace.Request{Time: tm, Op: trace.Read, LBA: lba, N: n}
}

// Generate produces the trace at the given scale (1.0 = the paper's
// request count). It returns the trace and the number of leading
// warm-up requests the replayer should exclude from measurement.
func (g *Generator) Generate(scale float64) (*trace.Trace, int) {
	total := int(float64(g.p.IOs) * scale)
	if total < 1 {
		total = 1
	}
	tr := &trace.Trace{Name: g.p.Name, Requests: make([]trace.Request, 0, total)}

	var tm sim.Time
	writePhase := true
	phaseLeft := g.p.PhaseLen
	for i := 0; i < total; i++ {
		if g.p.PhaseLen > 0 && phaseLeft == 0 {
			writePhase = !writePhase
			tm = tm.Add(sim.Duration(g.p.IdleGapUS))
			if writePhase {
				phaseLeft = g.p.PhaseLen
			} else {
				phaseLeft = g.p.ReadPhaseLen
				if phaseLeft == 0 {
					phaseLeft = g.p.PhaseLen
				}
			}
		}
		if g.p.PhaseLen > 0 {
			phaseLeft--
		}
		gap := g.p.BurstGapUS
		if gap <= 0 {
			gap = 1000
		}
		tm = tm.Add(sim.Duration(g.rng.Intn(gap*2) + 1))

		wf := g.p.WriteRatio
		if g.p.PhaseLen > 0 {
			if writePhase {
				wf = g.p.WritePhase
			} else {
				wf = g.p.ReadPhase
			}
		}
		if g.rng.Float64() < wf {
			tr.Requests = append(tr.Requests, g.genWrite(tm))
		} else {
			tr.Requests = append(tr.Requests, g.genRead(tm))
		}
	}
	warmup := int(float64(total) * g.p.WarmupFrac)
	return tr, warmup
}

// Generate is a convenience wrapper: build a scale-aware generator and
// run it.
func Generate(p Profile, scale float64) (*trace.Trace, int) {
	return NewScaled(p, scale).Generate(scale)
}
