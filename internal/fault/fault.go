// Package fault is the fault model of the simulated storage stack: a
// typed error taxonomy shared by every layer (disk, RAID, engine,
// serving), and a deterministic, schedule-driven fault injector the
// disk model consults on each access.
//
// Deduplication makes storage failures worse than proportional: the Map
// table's m-to-1 LBA→PBA sharing means one lost physical block silently
// corrupts every logical address referencing it (the reason the paper
// journals the Map table in NVRAM, §III-B). This package exists so that
// machinery can actually be exercised: injectors model the classic
// primary-storage fault menagerie — latent sector errors, transient I/O
// errors, slow ("limping") disks, and whole-device failures at a virtual
// timestamp — and every injection is a pure function of (schedule, seed,
// access sequence), so chaos runs replay bit-for-bit.
//
// With no injector attached the entire subsystem is a nil check on the
// disk hot path; simulated outputs are byte-identical to a build without
// it.
package fault

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/sim"
)

// Class partitions errors by how the layers above should react:
// transient faults are worth retrying (with backoff, in virtual time);
// permanent faults are not — the request outcome is final until an
// operator-level event (rebuild completion, restore from redundancy).
type Class uint8

// Error classes.
const (
	// Transient marks errors expected to clear on retry: transport
	// glitches, dropped commands, timeouts against a limping disk.
	Transient Class = iota + 1
	// Permanent marks errors retrying cannot fix: data loss with
	// redundancy exhausted, deadline exceeded, unknown failures.
	Permanent
)

// String names the class for logs and Result records.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	}
	return "unknown"
}

// Kind is the specific failure mechanism.
type Kind uint8

// Failure kinds.
const (
	// KindTransientIO is a one-off I/O failure (transport or firmware
	// hiccup); the same access retried later succeeds.
	KindTransientIO Kind = iota + 1
	// KindSectorError is a latent sector error: a block range on one
	// disk is unreadable until rewritten (remapped).
	KindSectorError
	// KindDiskFailed is a whole-device failure; every access to the
	// device errors from the failure time onward.
	KindDiskFailed
	// KindDataLoss is an array-level unrecoverable error: redundancy is
	// exhausted (RAID0 device loss, double failure, LSE while degraded).
	KindDataLoss
	// KindDeadlineExceeded is a serving-layer timeout: the request's
	// virtual-time deadline passed before a retry could be scheduled.
	KindDeadlineExceeded
	// KindUnavailable is degraded service: the serving layer refused
	// the request without attempting I/O (circuit breaker open).
	KindUnavailable
	// KindShardDown is a per-shard outage: the request's home shard (or
	// the canonical owner of a remote-deduplicated block) is crashed.
	// Transient — the shard is expected to rejoin, so retries against
	// the request deadline are the right response.
	KindShardDown
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTransientIO:
		return "transient-io"
	case KindSectorError:
		return "sector-error"
	case KindDiskFailed:
		return "disk-failed"
	case KindDataLoss:
		return "data-loss"
	case KindDeadlineExceeded:
		return "deadline-exceeded"
	case KindUnavailable:
		return "unavailable"
	case KindShardDown:
		return "shard-down"
	}
	return "unknown"
}

// Error is the typed storage error threaded from the disk model up
// through RAID, the engines, and the serving layer. Disk and Block
// locate the physical fault when one exists (-1 / ^0 otherwise); At is
// the virtual time of the failing access.
type Error struct {
	Kind  Kind
	Class Class
	Disk  int
	Block uint64
	At    sim.Time
}

// Error implements the error interface.
func (e *Error) Error() string {
	switch e.Kind {
	case KindDeadlineExceeded, KindUnavailable, KindShardDown:
		return fmt.Sprintf("fault: %s (%s) at %v", e.Kind, e.Class, e.At)
	}
	return fmt.Sprintf("fault: %s (%s) disk %d block %d at %v", e.Kind, e.Class, e.Disk, e.Block, e.At)
}

// New builds a typed error.
func New(kind Kind, class Class, disk int, block uint64, at sim.Time) *Error {
	return &Error{Kind: kind, Class: class, Disk: disk, Block: block, At: at}
}

// ClassOf classifies any error: nil is 0 (no error), a *fault.Error
// reports its own class, and everything else is Permanent (an unknown
// failure is not safe to retry blindly).
func ClassOf(err error) Class {
	if err == nil {
		return 0
	}
	if fe, ok := err.(*Error); ok {
		return fe.Class
	}
	return Permanent
}

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return ClassOf(err) == Transient }

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

// SectorRange declares blocks [Start, Start+Count) of one disk latent
// from From onward: reads fail with KindSectorError until the range is
// rewritten (the drive remaps on write).
type SectorRange struct {
	Disk         int
	Start, Count uint64
	From         sim.Time
}

// TransientWindow declares a transient-error storm: within [From,
// Until), each access to Disk (-1 = every disk) fails independently
// with probability PerMille/1000, decided by a deterministic hash of
// (seed, disk, access sequence).
type TransientWindow struct {
	Disk        int
	From, Until sim.Time
	PerMille    int
}

// SlowWindow declares a limping disk: within [From, Until), every
// service time on Disk is multiplied by Factor (>1). No errors — just
// latency, the failure mode that evades naive health checks.
type SlowWindow struct {
	Disk        int
	From, Until sim.Time
	Factor      float64
}

// DiskFail declares a whole-device failure of Disk at virtual time At.
type DiskFail struct {
	Disk int
	At   sim.Time
}

// Schedule is a complete fault plan for one array. The zero value
// injects nothing.
type Schedule struct {
	Seed       uint64
	Sectors    []SectorRange
	Transients []TransientWindow
	Slow       []SlowWindow
	Fails      []DiskFail
}

// ---------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------

// diskState is the mutable per-disk view of the schedule: sector ranges
// heal on rewrite, failed devices are replaced after rebuild, and the
// access sequence number drives the deterministic transient coin.
type diskState struct {
	seq      uint64 // accesses checked so far (the transient coin input)
	failAt   sim.Time
	failed   bool // failAt armed
	sectors  []SectorRange
	trans    []TransientWindow
	slow     []SlowWindow
	slowHits int64
}

// Injector evaluates one array's fault schedule. It is not safe for
// concurrent use — like the disks it haunts, it belongs to a single
// shard's serving goroutine.
type Injector struct {
	seed  uint64
	disks []diskState

	// lifetime counters, exported through the metrics registry
	injTransient int64
	injSector    int64
	injDiskFail  int64
	healedRanges int64
	replaced     int64
}

// NewInjector compiles a schedule for an array of ndisks spindles.
// Entries naming a disk outside [0, ndisks) panic — a silent clamp
// would make a chaos scenario quietly weaker than written.
func NewInjector(s Schedule, ndisks int) *Injector {
	in := &Injector{seed: s.Seed, disks: make([]diskState, ndisks)}
	check := func(d int) {
		if d < 0 || d >= ndisks {
			panic(fmt.Sprintf("fault: schedule names disk %d, array has %d", d, ndisks))
		}
	}
	for _, r := range s.Sectors {
		check(r.Disk)
		in.disks[r.Disk].sectors = append(in.disks[r.Disk].sectors, r)
	}
	for _, w := range s.Transients {
		if w.Disk == -1 {
			for d := range in.disks {
				in.disks[d].trans = append(in.disks[d].trans, w)
			}
			continue
		}
		check(w.Disk)
		in.disks[w.Disk].trans = append(in.disks[w.Disk].trans, w)
	}
	for _, w := range s.Slow {
		check(w.Disk)
		in.disks[w.Disk].slow = append(in.disks[w.Disk].slow, w)
	}
	for _, f := range s.Fails {
		check(f.Disk)
		ds := &in.disks[f.Disk]
		if !ds.failed || f.At < ds.failAt {
			ds.failAt, ds.failed = f.At, true
		}
	}
	return in
}

// splitmix64 is the standard 64-bit mixer; with a counter input it is a
// perfectly deterministic per-access coin.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Check evaluates the schedule for one access to disk d covering
// [start, start+n) at time t, returning the injected error or nil.
// Precedence: device failure, then transient storm, then (reads only)
// latent sector errors. Writes covering a latent range heal it — the
// drive remaps the sectors.
func (in *Injector) Check(d int, t sim.Time, write bool, start, n uint64) *Error {
	if in == nil {
		return nil
	}
	ds := &in.disks[d]
	if ds.failed && t >= ds.failAt {
		in.injDiskFail++
		return New(KindDiskFailed, Permanent, d, start, t)
	}
	for _, w := range ds.trans {
		if t < w.From || t >= w.Until {
			continue
		}
		ds.seq++
		coin := splitmix64(in.seed ^ uint64(d)<<32 ^ ds.seq)
		if int(coin%1000) < w.PerMille {
			in.injTransient++
			return New(KindTransientIO, Transient, d, start, t)
		}
		break // one coin per access, first active window wins
	}
	if write {
		in.healRange(ds, start, n)
		return nil
	}
	for _, r := range ds.sectors {
		if t < r.From || r.Count == 0 {
			continue
		}
		if start < r.Start+r.Count && r.Start < start+n {
			bad := r.Start
			if bad < start {
				bad = start
			}
			in.injSector++
			return New(KindSectorError, Permanent, d, bad, t)
		}
	}
	return nil
}

// healRange remaps any latent sectors covered by a write to [start,
// start+n): overlapping ranges shrink or vanish.
func (in *Injector) healRange(ds *diskState, start, n uint64) {
	out := ds.sectors[:0]
	for _, r := range ds.sectors {
		if start >= r.Start+r.Count || r.Start >= start+n {
			out = append(out, r)
			continue
		}
		in.healedRanges++
		// keep any un-overwritten head / tail of the range
		if r.Start < start {
			out = append(out, SectorRange{Disk: r.Disk, Start: r.Start, Count: start - r.Start, From: r.From})
		}
		if r.Start+r.Count > start+n {
			out = append(out, SectorRange{Disk: r.Disk, Start: start + n, Count: r.Start + r.Count - start - n, From: r.From})
		}
	}
	ds.sectors = out
}

// Inflate applies any active slow-disk window to a service time.
func (in *Injector) Inflate(d int, t sim.Time, svc sim.Duration) sim.Duration {
	if in == nil {
		return svc
	}
	ds := &in.disks[d]
	for _, w := range ds.slow {
		if t >= w.From && t < w.Until && w.Factor > 1 {
			ds.slowHits++
			return sim.Duration(float64(svc) * w.Factor)
		}
	}
	return svc
}

// ReplaceDisk models swapping in a fresh device for disk d (the RAID
// layer calls it when it installs a hot spare): the pending device
// failure and all latent sectors are cleared — new hardware, new luck.
// Transient and slow windows remain; they model the shared transport.
func (in *Injector) ReplaceDisk(d int) {
	if in == nil {
		return
	}
	ds := &in.disks[d]
	ds.failed = false
	ds.failAt = 0
	ds.sectors = nil
	in.replaced++
}

// Stats is a snapshot of injection activity.
type Stats struct {
	Transient, Sector, DiskFail int64
	HealedRanges, Replaced      int64
	SlowAccesses                int64
}

// Stats reports lifetime injection counts.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	s := Stats{
		Transient: in.injTransient, Sector: in.injSector, DiskFail: in.injDiskFail,
		HealedRanges: in.healedRanges, Replaced: in.replaced,
	}
	for i := range in.disks {
		s.SlowAccesses += in.disks[i].slowHits
	}
	return s
}
