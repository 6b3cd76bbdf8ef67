package engine

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Policy is everything that distinguishes one deduplication scheme from
// another. The Pipeline owns the request walk and consults the policy a
// constant number of times per request; per-chunk loops live inside the
// policy's methods, so the walk adds no per-chunk dispatch.
type Policy interface {
	// Fingerprinted reports whether req is hashed at all. A request
	// that is not skips the hash cost, Lookup and Decide: every chunk
	// is placed. (Its chunks carry fingerprints all the same, computed
	// where they are cut; nothing reads them.)
	Fingerprinted(b *Base, req *trace.Request) bool
	// Lookup fills w.Dup and w.Target with the known copies of
	// w.Chunks, starting at virtual time at, and returns the time the
	// answers are in hand. An error fails the request.
	Lookup(b *Base, w *WriteOp, at sim.Time) (sim.Time, error)
	// Decide marks in w.Dedupe which of the hits to deduplicate.
	Decide(b *Base, w *WriteOp)
	// Placed runs once the request is applied: w.Dedupe holds the hits
	// actually absorbed, w.Placed and w.PBAs the chunks written fresh
	// and where. Index inserts, advertisements and scan queues go here.
	Placed(b *Base, w *WriteOp)
}

// A policy whose write (Native: in place at identity addresses, without
// the Map table and the allocator — so occupancy and logical content are
// the policy's to answer too) or read (I/O-Dedup: content-addressed) is
// genuinely different code implements Writer or Reader and services that
// step itself; tick and accounting stay with the Pipeline.
type (
	Writer interface {
		Write(b *Base, req *trace.Request) (sim.Duration, error)
		UsedBlocks(b *Base) uint64
		ReadContent(b *Base, lba uint64) (uint64, bool)
	}
	Reader interface {
		Read(b *Base, req *trace.Request) (sim.Duration, error)
	}
)

// Passthrough is the policy that fingerprints every request, knows no
// duplicates, and ignores placement. Schemes embed it and override what
// they do differently.
type Passthrough struct{}

func (Passthrough) Fingerprinted(*Base, *trace.Request) bool                  { return true }
func (Passthrough) Lookup(_ *Base, _ *WriteOp, at sim.Time) (sim.Time, error) { return at, nil }
func (Passthrough) Decide(*Base, *WriteOp)                                    {}
func (Passthrough) Placed(*Base, *WriteOp)                                    {}

// WriteOp is one write request's state as it moves through the walk.
// The slices are the Pipeline's scratch: an engine services one request
// at a time, so they are valid for the current request only and a
// policy must not retain them (DESIGN.md "Buffer ownership").
type WriteOp struct {
	Req    *trace.Request
	Chunks []chunk.Chunk // the split; Chunks[i] lands at Req.LBA+i
	Hashed bool          // the policy fingerprinted: cost charged, Lookup and Decide ran
	Dup    []bool        // lookup: chunk i has a known copy ...
	Target []alloc.PBA   // ... at Target[i]
	Dedupe []bool        // decide: hits selected; at Placed: hits absorbed
	Placed []int         // chunks written fresh ...
	PBAs   []alloc.PBA   // ... and where, parallel to Placed
	Ads    []Ad          // at Placed: the request's tier advertisements
}

// Pipeline is the one storage engine: the substrate, the request walk,
// and a Policy. Every scheme constructor returns one.
type Pipeline struct {
	name string
	b    *Base
	pol  Policy
	op   WriteOp

	// what the policy takes over, resolved once; nil where it does not
	writer Writer
	reader Reader
}

// New assembles a scheme from a substrate and its policy.
func New(name string, b *Base, pol Policy) *Pipeline {
	p := &Pipeline{name: name, b: b, pol: pol}
	p.writer, _ = pol.(Writer)
	p.reader, _ = pol.(Reader)
	return p
}

// Name implements Engine.
func (p *Pipeline) Name() string { return p.name }

// Base exposes the substrate; background tasks, the global fingerprint
// tier and the audits attach through it.
func (p *Pipeline) Base() *Base { return p.b }

// Stats implements Engine.
func (p *Pipeline) Stats() *Stats { return p.b.St }

// Metrics implements Engine.
func (p *Pipeline) Metrics() *metrics.Registry { return p.b.Reg }

// UsedBlocks implements Engine.
func (p *Pipeline) UsedBlocks() uint64 {
	if p.writer != nil {
		return p.writer.UsedBlocks(p.b)
	}
	return p.b.Alloc.Used()
}

// ReadContent implements Engine.
func (p *Pipeline) ReadContent(lba uint64) (uint64, bool) {
	if p.writer != nil {
		return p.writer.ReadContent(p.b, lba)
	}
	return p.b.ReadContent(lba)
}

// Release implements replay.Releaser: pooled substrate resources go
// back to their process-wide pools at end of life.
func (p *Pipeline) Release() { p.b.Release() }

// Flush drains the attached background task (the out-of-line scanner,
// Post-Process's queue) to convergence, so end-of-run capacity numbers
// reflect a completed pass. A no-op without one.
func (p *Pipeline) Flush(now sim.Time) {
	if p.b.Background != nil {
		p.b.Background.Flush(now)
	}
}

// CrashAndRecover models a power failure and restart: the DRAM caches
// are lost and the Map table is rebuilt from its NVRAM journal — the
// §IV-D2 durability story. It returns the number of journal records
// replayed. A policy's private tables survive as hints: every use of
// one is validated against the content model.
func (p *Pipeline) CrashAndRecover() (int, error) { return p.b.Recover() }

// Write implements Engine: tick, service, account. A request counts in
// Writes and WriteRT when it is acknowledged, in WriteErrors otherwise.
func (p *Pipeline) Write(req *trace.Request) (sim.Duration, error) {
	b := p.b
	b.Ph.Begin()
	b.Tick(req.Time)
	var rt sim.Duration
	var err error
	if p.writer != nil {
		rt, err = p.writer.Write(b, req)
	} else {
		rt, err = p.walk(req)
	}
	if err != nil {
		b.St.WriteErrors++
		return rt, err
	}
	b.St.Writes++
	b.St.WriteRT.Add(int64(rt))
	return rt, nil
}

// Read implements Engine, with the same accounting rule as Write.
func (p *Pipeline) Read(req *trace.Request) (sim.Duration, error) {
	b := p.b
	b.Ph.Begin()
	b.Tick(req.Time)
	var rt sim.Duration
	var err error
	if p.reader != nil {
		rt, err = p.reader.Read(b, req)
	} else {
		rt, err = b.ReadMapped(req, false)
	}
	if err != nil {
		b.St.ReadErrors++
		return rt, err
	}
	b.St.Reads++
	b.St.ReadRT.Add(int64(rt))
	return rt, nil
}

// walk is the write path every deduplicating scheme shares (Figure 6
// with the policy's choices left open): split → fingerprint → lookup →
// decide → absorb → place → publish. A lookup miss just means a lost
// opportunity; a selected hit that fails the consistency check is
// placed like any other chunk.
func (p *Pipeline) walk(req *trace.Request) (sim.Duration, error) {
	b, w := p.b, &p.op
	t := req.Time
	ready := t

	w.Req = req
	var cost sim.Duration
	w.Chunks, cost = b.Split(req)
	chs := w.Chunks
	if req.LBA+uint64(len(chs)) > trace.LBALimit { // CDC chunks may outnumber the slots
		return 0, fmt.Errorf("engine: %d chunks at lba %d run past the logical-address bound %d", len(chs), req.LBA, uint64(trace.LBALimit))
	}
	if w.Hashed = p.pol.Fingerprinted(b, req); w.Hashed {
		ready = t.Add(cost)
		b.Ph.Observe(metrics.PhaseFingerprint, int64(cost))
		if b.Loc != nil {
			for i := range chs {
				b.Loc.Record(uint32(req.Stream), chs[i].FP)
			}
		}
	}
	w.Dup, w.Dedupe, w.Target = reset(w.Dup, len(chs)), reset(w.Dedupe, len(chs)), reset(w.Target, len(chs))
	if cap(w.Placed) < len(chs) {
		w.Placed = make([]int, 0, len(chs))
	}
	w.Placed, w.PBAs = w.Placed[:0], nil

	if w.Hashed {
		var err error
		if ready, err = p.pol.Lookup(b, w, ready); err != nil {
			return ready.Sub(t), err
		}
		p.pol.Decide(b, w)
	}

	for i := range chs {
		if w.Dedupe[i] && b.TryDedupe(req.LBA+uint64(i), w.Target[i], chs[i].Content) {
			continue
		}
		w.Dedupe[i] = false
		w.Placed = append(w.Placed, i)
	}

	done := ready
	if len(w.Placed) > 0 {
		var err error
		if done, w.PBAs, err = b.WriteFresh(ready, req, w.Placed, chs); err != nil {
			return done.Sub(t), err
		}
	} else {
		done = b.AbsorbWrite(done)
	}

	p.pol.Placed(b, w)
	b.VerifyWrite(req, chs)
	return done.Sub(t), nil
}

// reset returns s resized to n zeroed elements, reallocating only when
// its capacity is short.
func reset[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
