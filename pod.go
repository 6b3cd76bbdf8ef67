// Package pod is the public interface to this reproduction of
// "POD: Performance Oriented I/O Deduplication for Primary Storage
// Systems in the Cloud" (Mao, Jiang, Wu, Tian — IPDPS 2014).
//
// It exposes the paper's storage engines — Native, Full-Dedupe, iDedup,
// Select-Dedupe, and POD (Select-Dedupe + adaptive iCache) — over a
// simulated 4-disk RAID5 primary storage system, together with the
// synthetic FIU-like trace generators and the experiment harness that
// regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	sys, err := pod.New(pod.Config{Scheme: pod.SchemePOD})
//	...
//	res, _ := sys.Do(&pod.Request{Op: pod.OpWrite, LBA: 100,
//		Content: []pod.ContentID{1, 2, 3}}) // 3 chunks at LBA 100
//	res, _ = sys.Do(&pod.Request{Time: res.Complete, Op: pod.OpRead,
//		LBA: 100, Chunks: 3})
//	fmt.Println(sys.Stats())
//
// Addresses and lengths are in 4 KiB chunks, and a request must end
// within the logical address space, LBA + chunks ≤ 2^28 (1 TiB): Do
// refuses one past it. Times are microseconds of virtual time
// (requests must be submitted in non-decreasing time order). Content is identified by opaque content IDs — equal IDs mean
// byte-identical chunks. The same Request/Result pair is the submission
// surface of the sharded serving layer (internal/server), which
// re-exports these types.
package pod

import (
	"cmp"
	"fmt"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
)

// Request is one I/O against a System: Time is the virtual arrival in
// microseconds, Op the direction, LBA the address in 4 KiB chunks.
// Writes carry one ContentID per chunk in Content (which also sets the
// length); reads set Chunks.
type Request = api.Request

// Result is one completed request: Start/Complete bracket the service
// in virtual microseconds, Service is the engine response time, and
// Sojourn additionally includes any queue wait (equal to Service on a
// System, which has no queue).
type Result = api.Result

// Op is a request direction.
type Op = api.Op

// Request directions.
const (
	OpRead  Op = api.OpRead
	OpWrite Op = api.OpWrite
)

// ContentID identifies a chunk's content; equal IDs mean byte-identical
// chunks.
type ContentID = api.ContentID

// StreamID identifies the tenant stream a request belongs to; the zero
// value is the default (untagged) stream. Stream tags let a system with
// Config.StreamAware divide the fingerprint-index cache between
// co-located tenants by estimated temporal locality.
type StreamID = api.StreamID

// Scheme selects a storage engine.
type Scheme string

// The five schemes of the paper's evaluation.
const (
	SchemeNative       Scheme = "Native"
	SchemeFullDedupe   Scheme = "Full-Dedupe"
	SchemeIDedup       Scheme = "iDedup"
	SchemeSelectDedupe Scheme = "Select-Dedupe"
	SchemePOD          Scheme = "POD"
	// SchemeIODedup is Koller & Rangaswami's I/O Deduplication
	// (FAST'10): content-aware caching and replica-aware reads, no
	// write elimination.
	SchemeIODedup Scheme = "I/O-Dedup"
	// SchemePostProcess is offline deduplication in the style of
	// El-Shimi et al. (ATC'12): writes land untouched; a background
	// scanner merges duplicates later.
	SchemePostProcess Scheme = "Post-Process"
)

// Schemes lists every available scheme.
func Schemes() []Scheme {
	return []Scheme{SchemeNative, SchemeFullDedupe, SchemeIDedup, SchemeSelectDedupe,
		SchemePOD, SchemeIODedup, SchemePostProcess}
}

// ParseScheme resolves a scheme name case-insensitively, ignoring
// hyphen/slash/underscore/space punctuation: "pod", "Select-Dedupe",
// "selectdedupe" and "i/o-dedup" all resolve. The command-line tools
// and New share this one name table.
func ParseScheme(s string) (Scheme, error) {
	name, err := experiments.ParseScheme(s)
	if err != nil {
		return "", fmt.Errorf("pod: %w", err)
	}
	return Scheme(name), nil
}

// Config describes the simulated platform. The zero value of every
// field selects the paper's setup (§IV-A).
type Config struct {
	Scheme Scheme // default SchemePOD

	Disks        int    // spindles in the array (default 4)
	DiskBlocks   uint64 // capacity per spindle in 4 KiB blocks (default 2^19 = 2 GiB)
	StripeUnitKB int    // RAID5 stripe unit (default 64)
	// Layout selects the array layout: "raid5" (default), "raid0", or
	// "raid1" (mirrored pairs; requires an even disk count).
	Layout string

	MemoryMB int // storage-cache DRAM budget (default 32)

	// Select-Dedupe partial-redundancy threshold (default 3, §III-B)
	// and iDedup minimum duplicate-sequence length (default 8 chunks).
	Threshold       int
	IDedupThreshold int

	// NVRAMKB sizes the Map-table journal (default: sized to the
	// array; 0 keeps the default, -1 disables journaling).
	NVRAMKB int

	// Verify re-checks every write against the content model (slower;
	// intended for tests).
	Verify bool

	// BGDedup enables the idle-aware background out-of-line
	// deduplication scanner, which reclaims the duplicate copies the
	// selective inline path intentionally wrote. Supported by the
	// Select-Dedupe and POD schemes only.
	BGDedup bool
	// BGDedupBlocksPerSec budgets the scanner's throughput in 4 KiB
	// blocks per simulated second (0 = default).
	BGDedupBlocksPerSec int64

	// StreamAware enables HPDedup-style per-stream apportionment of the
	// fingerprint-index cache: requests tagged with a StreamID get
	// per-stream index quotas, re-divided periodically by a temporal-
	// locality estimator (with a shared floor so no stream starves).
	// Supported by the Select-Dedupe and POD schemes; untagged requests
	// land on the default stream.
	StreamAware bool

	// Chunking selects the request chunker: "fixed4k" (default — the
	// paper's model, one chunk per 4 KiB slot keyed by the trace's
	// ContentID), "gear" (Gear rolling-hash content-defined chunking),
	// or "seqcdc" (sequence-based, hashless CDC). Under gear/seqcdc the
	// engine materializes each write's bytes deterministically from its
	// ContentIDs and re-chunks at content-defined boundaries, so
	// byte-shifted redundancy (snapshot edits) dedups even though every
	// trace ID is unique. Not supported by the Native scheme (it never
	// splits requests).
	Chunking string
}

// System is a storage system under one scheme.
type System struct {
	eng  *engine.Pipeline // what every scheme constructor returns
	last sim.Time
}

// New builds a system. It returns an error (never panics) for invalid
// configurations.
func New(cfg Config) (*System, error) {
	scheme, err := ParseScheme(string(cmp.Or(cfg.Scheme, SchemePOD)))
	if err != nil {
		return nil, err
	}
	level, err := raid.ParseLevel(cmp.Or(cfg.Layout, "raid5"))
	if err != nil {
		return nil, fmt.Errorf("pod: %w", err)
	}
	def := experiments.DefaultPlatform()
	p := experiments.Platform{
		Disks: cmp.Or(cfg.Disks, def.Disks), DiskBlocks: cmp.Or(cfg.DiskBlocks, def.DiskBlocks), Level: level,
		StripeKB: cmp.Or(cfg.StripeUnitKB, def.StripeKB), MemoryBytes: cmp.Or(int64(cfg.MemoryMB)<<20, def.MemoryBytes),
		NVRAMBytes: cfg.NVRAMKB * 1024, // 0 sizes the journal to the array, -1 KB disables it
	}
	switch {
	case cfg.Threshold < 0:
		return nil, fmt.Errorf("pod: negative Threshold %d", cfg.Threshold)
	case cfg.IDedupThreshold < 0:
		return nil, fmt.Errorf("pod: negative IDedupThreshold %d", cfg.IDedupThreshold)
	case cfg.NVRAMKB < -1:
		return nil, fmt.Errorf("pod: NVRAMKB %d: -1 disables journaling, no other negative value means anything", cfg.NVRAMKB)
	case cfg.BGDedupBlocksPerSec < 0:
		return nil, fmt.Errorf("pod: negative BGDedupBlocksPerSec %d", cfg.BGDedupBlocksPerSec)
	}

	axes := experiments.Axes{Streams: cfg.StreamAware, BGDedup: cfg.BGDedup, BGDedupRate: cfg.BGDedupBlocksPerSec}
	if cfg.Chunking != "" {
		if axes.Chunking, err = cdc.ParseAlgo(cfg.Chunking); err != nil {
			return nil, fmt.Errorf("pod: %w", err)
		}
	}
	eng, err := experiments.Build(string(scheme), p, axes, func(c *engine.Config) {
		c.Threshold, c.IDedupThreshold, c.Verify = cfg.Threshold, cfg.IDedupThreshold, cfg.Verify
	})
	if err != nil {
		return nil, fmt.Errorf("pod: %w", err)
	}
	return &System{eng: eng.(*engine.Pipeline)}, nil
}

// Scheme reports the engine in use.
func (s *System) Scheme() Scheme { return Scheme(s.eng.Name()) }

func (s *System) checkTime(atMicros int64) error {
	if sim.Time(atMicros) < s.last {
		return fmt.Errorf("pod: request at t=%dµs arrives before the previous request (t=%dµs): submit in time order", atMicros, int64(s.last))
	}
	s.last = sim.Time(atMicros)
	return nil
}

// ErrNoSpace is the Result.Err of a write whose new chunks the array
// has no free blocks for. The write's new chunks change nothing; those
// it deduplicated against stored blocks stay written.
var ErrNoSpace = engine.ErrNoSpace

// Do submits one request and returns its completion record. Requests
// must arrive in non-decreasing Time order; a System serves them
// synchronously (no queue), so Result.Sojourn equals Result.Service
// and Result.Shard is 0.
//
// A storage fault the stack could not absorb is reported in Result.Err
// (a *fault.Error carrying the transient/permanent classification), not
// as Do's error return — the request was accepted and serviced, it just
// failed; so is ErrNoSpace, a write the full array cannot place. Do's
// own error covers malformed or mis-ordered requests. A System has no
// retry layer; callers wanting retries, deadlines, and breaker
// semantics use the sharded server.
func (s *System) Do(r *Request) (Result, error) {
	if err := r.Validate(); err != nil {
		return Result{}, fmt.Errorf("pod: %w", err)
	}
	if err := s.checkTime(r.Time); err != nil {
		return Result{}, err
	}
	treq := r.Trace()
	var rt sim.Duration
	var ferr error
	if r.Op == OpWrite {
		rt, ferr = s.eng.Write(&treq)
	} else {
		rt, ferr = s.eng.Read(&treq)
	}
	return Result{
		Start:    r.Time,
		Complete: r.Time + int64(rt),
		Service:  int64(rt),
		Sojourn:  int64(rt),
		Err:      ferr,
	}, nil
}

// ReadBack returns the content ID stored at lba (ok is false for
// never-written blocks) without simulating an I/O — the verification
// path.
func (s *System) ReadBack(lba uint64) (uint64, bool) { return s.eng.ReadContent(lba) }

// UsedBlocks reports the physical blocks currently occupied.
func (s *System) UsedBlocks() uint64 { return s.eng.UsedBlocks() }

// CrashAndRecover simulates a power failure followed by a restart: all
// DRAM state is lost and the Map table is rebuilt from its NVRAM
// journal. Every acknowledged write survives. It returns the number of
// journal records replayed, and an error for schemes without NVRAM
// journaling support.
func (s *System) CrashAndRecover() (int, error) {
	return s.eng.CrashAndRecover()
}

// Summary is an exported snapshot of a system's statistics.
type Summary struct {
	Scheme               string
	Reads, Writes        int64
	MeanReadMicros       float64
	MeanWriteMicros      float64
	P95ReadMicros        float64
	P95WriteMicros       float64
	WritesRemovedPct     float64
	ChunksDedupedPct     float64
	ReadCacheHitPct      float64
	IndexDiskLookups     int64
	NVRAMPeakBytes       int64
	UsedBlocks           uint64
	Category1, Category2 int64
	Category3            int64
}

// Stats snapshots the system's accumulated metrics.
func (s *System) Stats() Summary {
	st := s.eng.Stats()
	return Summary{
		Scheme:           s.eng.Name(),
		Reads:            st.Reads,
		Writes:           st.Writes,
		MeanReadMicros:   st.ReadRT.Mean(),
		MeanWriteMicros:  st.WriteRT.Mean(),
		P95ReadMicros:    st.ReadRT.Percentile(95),
		P95WriteMicros:   st.WriteRT.Percentile(95),
		WritesRemovedPct: st.WriteRemovalPct(),
		ChunksDedupedPct: st.DedupRatioPct(),
		ReadCacheHitPct:  st.CacheHitPct(),
		IndexDiskLookups: st.IndexDiskIOs,
		NVRAMPeakBytes:   st.NVRAMPeakBytes,
		UsedBlocks:       s.eng.UsedBlocks(),
		Category1:        st.Cat1,
		Category2:        st.Cat2,
		Category3:        st.Cat3,
	}
}

// String renders the summary as a short human-readable report.
func (s Summary) String() string {
	return fmt.Sprintf(
		"%s: %d writes (%.1f%% removed, %.1f%% chunks deduped), %d reads (%.1f%% cache hits); "+
			"mean RT write %.2fms read %.2fms; %d blocks used",
		s.Scheme, s.Writes, s.WritesRemovedPct, s.ChunksDedupedPct,
		s.Reads, s.ReadCacheHitPct,
		s.MeanWriteMicros/1000, s.MeanReadMicros/1000, s.UsedBlocks)
}
