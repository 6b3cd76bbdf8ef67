// Package raid implements software RAID-0, RAID-5 and RAID-1 layouts
// over the disk model, reproducing the 4-disk RAID5 with 64 KB stripe
// unit used in the POD paper's evaluation (§IV-B).
//
// Addresses are in 4 KB blocks. RAID5 uses the left-symmetric layout:
// parity rotates from the last disk downwards and data units fill the
// remaining disks starting immediately after the parity disk. Partial-
// stripe writes pay the classic read-modify-write penalty (read old
// data and old parity, then write new data and new parity, the write
// phase serialized behind the read phase); full-stripe writes skip the
// read phase. This write-cost asymmetry is what makes eliminating
// small writes — POD's central idea — so valuable on parity RAID.
//
// Fault handling. Disk accesses return typed *fault.Error values; the
// array is the first layer of defense:
//
//   - a latent sector error on a redundant layout is reconstructed in
//     place (parity/mirror reads) and the rebuilt range is written back,
//     remapping the bad sectors — the access succeeds, slower;
//   - a whole-device failure flips the array into degraded mode and
//     starts an online rebuild onto a hot spare: rebuild I/O is paced in
//     virtual time and competes with foreground requests on the very
//     same FCFS spindle queues, so degraded-and-rebuilding latency is
//     directly measurable. When the rebuild frontier passes the end of
//     the device the array self-heals back to full redundancy;
//   - transient I/O errors propagate upward as Transient — retry policy
//     belongs to the serving layer, not the array;
//   - anything that exhausts redundancy (RAID0 device loss, double
//     failure, sector error while degraded) surfaces as a Permanent
//     KindDataLoss error.
package raid

import (
	"fmt"
	"math/bits"

	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/sim"
)

// Level selects the array layout.
type Level int

// Supported layouts.
const (
	RAID0 Level = iota
	RAID5
	RAID1
)

// Array is a striped disk array presenting a flat data-block space.
type Array struct {
	level  Level
	disks  []*disk.Disk
	unit   uint64 // stripe unit in blocks
	failed int    // index of failed disk, -1 if none

	dataBlocks uint64
	stripes    uint64

	inj *fault.Injector

	// online-rebuild state: after a detected device failure a hot spare
	// replaces the failed disk and reconstruction sweeps it from block 0
	// at one stripe unit per rebuildStep of virtual time.
	rebuilding  bool
	frontier    uint64 // per-disk blocks reconstructed onto the spare
	rebuildLast sim.Time
	rebuildStep sim.Duration

	// segScratch backs the segment slices built by split. Arrays are
	// driven by a single goroutine (replay is single-threaded per
	// engine; the serving layer serializes per shard), and Read/Write
	// fully consume their segments before returning, so one buffer per
	// array is safe.
	segScratch []segment

	// accounting
	logicalReads, logicalWrites int64
	diskIOs                     int64
	rmwStripes                  int64
	fullStripes                 int64
	degradedReads               int64
	sectorRepairs               int64
	transientErrs               int64
	dataLossErrs                int64
	failEvents                  int64
	rebuildIOs                  int64
	rebuildsDone                int64
}

// New assembles an array. All disks must have equal capacity; unit is
// the stripe unit in blocks. RAID5 requires at least 3 disks, RAID0 at
// least 1.
func New(level Level, disks []*disk.Disk, unit uint64) *Array {
	if unit == 0 {
		panic("raid: zero stripe unit")
	}
	min := 1
	switch level {
	case RAID5:
		min = 3
	case RAID1:
		min = 2
	}
	if len(disks) < min {
		panic(fmt.Sprintf("raid: level %d needs at least %d disks", level, min))
	}
	blocks := disks[0].Params().Blocks
	for _, d := range disks {
		if d.Params().Blocks != blocks {
			panic("raid: disks must have equal capacity")
		}
	}
	if level == RAID1 && len(disks)%2 != 0 {
		panic("raid: RAID1 needs an even number of disks")
	}
	a := &Array{level: level, disks: disks, unit: unit, failed: -1}
	a.stripes = blocks / unit
	data := uint64(len(disks)) // spindles' worth of data a stripe holds
	switch level {
	case RAID5:
		data--
	case RAID1:
		// mirrored pairs: half the spindles hold data, half mirrors
		data /= 2
	}
	// The product can wrap: five RAID5 disks of 2^62 + 16 blocks would
	// report 64 data blocks. No input reaches this panic — pod.New and
	// podsim refuse a disk past 2^28 blocks — but a wrapped capacity
	// must not reach any other caller either.
	hi, lo := bits.Mul64(a.stripes*unit, data)
	if hi != 0 {
		panic(fmt.Sprintf("raid: %d disks of %d blocks hold more than 2^64 data blocks", len(disks), blocks))
	}
	a.dataBlocks = lo
	// Default rebuild pace: one stripe unit per sequential
	// read-plus-write of that unit (the transfer-bound rate of a
	// dedicated spare, ~100 MB/s on the default drive model).
	p := disks[0].Params()
	unitUS := float64(unit) * float64(p.BlockBytes) / (p.TransferMBps * 1e6) * 1e6
	a.rebuildStep = sim.Duration(2 * unitUS)
	if a.rebuildStep < 1 {
		a.rebuildStep = 1
	}
	return a
}

// DataBlocks reports the usable capacity in blocks.
func (a *Array) DataBlocks() uint64 { return a.dataBlocks }

// NumDisks reports the number of spindles.
func (a *Array) NumDisks() int { return len(a.disks) }

// PerDiskBlocks reports each spindle's striped capacity in blocks (the
// address space a fault schedule targets on one device).
func (a *Array) PerDiskBlocks() uint64 { return a.stripes * a.unit }

// SetInjector attaches a fault injector to every spindle (nil
// detaches). The array keeps a reference so it can retire the failure
// of a replaced device; a latent sector it repairs heals on the repair
// write itself.
func (a *Array) SetInjector(in *fault.Injector) {
	a.inj = in
	for i, d := range a.disks {
		d.SetInjector(in, i)
	}
}

// DataDisksPerStripe reports how many data units each stripe holds.
func (a *Array) DataDisksPerStripe() int {
	switch a.level {
	case RAID5:
		return len(a.disks) - 1
	case RAID1:
		return len(a.disks) / 2
	}
	return len(a.disks)
}

// mirrorOf maps a RAID1 disk to its partner (primary ↔ mirror).
func (a *Array) mirrorOf(d int) int {
	half := len(a.disks) / 2
	if d >= half {
		return d - half
	}
	return d + half
}

// Fail marks disk i failed without starting a rebuild — the static
// degraded mode used by tests and ablations. Failing an out-of-range
// index panics immediately (silently recording it would corrupt every
// later parity decision); failing the already-failed disk is a no-op;
// failing a second disk on a redundant layout panics — that is data
// loss, and the simulation cannot continue meaningfully.
func (a *Array) Fail(i int) {
	if i < 0 || i >= len(a.disks) {
		panic(fmt.Sprintf("raid: Fail(%d) out of range: array has %d disks", i, len(a.disks)))
	}
	if a.level == RAID0 {
		panic("raid: RAID0 has no redundancy to degrade into")
	}
	if a.failed == i {
		return
	}
	if a.failed >= 0 {
		panic(fmt.Sprintf("raid: double disk failure (disk %d already failed, cannot fail %d)", a.failed, i))
	}
	a.failed = i
	a.failEvents++
}

// StartRebuild installs a hot spare for the failed disk at virtual time
// t and begins the online rebuild: the spare starts empty and a paced
// background sweep reconstructs it stripe unit by stripe unit, sharing
// the spindle queues with foreground I/O. Panics if no disk is failed
// or the layout has no redundancy.
func (a *Array) StartRebuild(t sim.Time) {
	if a.failed < 0 {
		panic("raid: StartRebuild with no failed disk")
	}
	if a.level == RAID0 {
		panic("raid: RAID0 cannot rebuild")
	}
	a.disks[a.failed].Reset() // fresh spare: empty queue, unknown head
	a.inj.ReplaceDisk(a.failed)
	a.rebuilding = true
	a.frontier = 0
	a.rebuildLast = t
}

// advanceRebuild submits the rebuild I/O scheduled in (rebuildLast, t]:
// each step reads one stripe unit from the redundancy set and writes it
// to the spare. Rebuild traffic shares the FCFS queues with foreground
// requests, so it inflates their latency — and they inflate its. Errors
// during rebuild reads are ignored (the sweep retries the region
// implicitly on the next pass of the foreground workload; modeling
// rebuild-killing double faults is the job of reads, which still check
// redundancy).
func (a *Array) advanceRebuild(t sim.Time) {
	if !a.rebuilding {
		return
	}
	limit := a.stripes * a.unit
	for a.rebuildLast.Add(a.rebuildStep) <= t {
		s := a.rebuildLast.Add(a.rebuildStep)
		a.rebuildLast = s
		n := a.unit
		if a.frontier+n > limit {
			n = limit - a.frontier
		}
		if a.level == RAID1 {
			a.disks[a.mirrorOf(a.failed)].Access(s, disk.Read, a.frontier, n)
			a.rebuildIOs++
		} else {
			for i, d := range a.disks {
				if i == a.failed {
					continue
				}
				d.Access(s, disk.Read, a.frontier, n)
				a.rebuildIOs++
			}
		}
		a.disks[a.failed].Access(s, disk.Write, a.frontier, n)
		a.rebuildIOs++
		a.frontier += n
		if a.frontier >= limit {
			a.rebuilding = false
			a.failed = -1
			a.frontier = 0
			a.rebuildsDone++
			return
		}
	}
}

// onDiskFailure reacts to a KindDiskFailed error from an access to
// block off of disk i at time t: with redundancy available the array
// degrades and self-heals (hot spare + online rebuild); without it —
// RAID0, or another disk already lost — the failure is data loss.
func (a *Array) onDiskFailure(i int, off uint64, t sim.Time) error {
	if a.level == RAID0 || (a.failed >= 0 && a.failed != i) {
		a.dataLossErrs++
		return fault.New(fault.KindDataLoss, fault.Permanent, i, off, t)
	}
	if a.failed < 0 {
		a.failed = i
		a.failEvents++
		a.StartRebuild(t)
	}
	return nil
}

// segment is one maximal run of a logical request that lives in a
// single stripe unit on a single disk.
type segment struct {
	stripe uint64 // stripe index
	du     int    // data-unit index within stripe
	disk   int    // physical disk
	off    uint64 // physical block offset on disk
	inUnit uint64 // offset within the stripe unit
	n      uint64 // blocks
}

// parityDisk returns the parity spindle for a stripe (left-symmetric).
func (a *Array) parityDisk(stripe uint64) int {
	nd := uint64(len(a.disks))
	return int((nd - 1 - stripe%nd) % nd)
}

// diskFor maps (stripe, data-unit) to a physical disk.
func (a *Array) diskFor(stripe uint64, du int) int {
	switch a.level {
	case RAID0, RAID1: // RAID1 primaries are the first half of the disks
		return du
	}
	p := a.parityDisk(stripe)
	return (p + 1 + du) % len(a.disks)
}

// split decomposes the logical run [start, start+n) into segments. The
// returned slice aliases segScratch and is valid until the next split.
func (a *Array) split(start, n uint64) []segment {
	dps := uint64(a.DataDisksPerStripe())
	segs := a.segScratch[:0]
	for n > 0 {
		u := start / a.unit      // global data-unit index
		inUnit := start % a.unit // offset within unit
		ln := a.unit - inUnit
		if ln > n {
			ln = n
		}
		stripe := u / dps
		du := int(u % dps)
		d := a.diskFor(stripe, du)
		segs = append(segs, segment{
			stripe: stripe,
			du:     du,
			disk:   d,
			off:    stripe*a.unit + inUnit,
			inUnit: inUnit,
			n:      ln,
		})
		start += ln
		n -= ln
	}
	a.segScratch = segs
	return segs
}

func (a *Array) checkRange(start, n uint64) {
	if start+n > a.dataBlocks {
		panic(fmt.Sprintf("raid: access out of range: [%d,%d) capacity %d", start, start+n, a.dataBlocks))
	}
}

// spareHolds reports whether the failed disk's replacement already holds
// [off, off+n): either no rebuild is needed, or the frontier has passed
// the whole range.
func (a *Array) spareHolds(off, n uint64) bool {
	return a.rebuilding && off+n <= a.frontier
}

// reconstructRead regenerates [off, off+n) of disk avoid from the
// array's redundancy: RAID5 reads the range from every other disk,
// RAID1 from the mirror partner. A permanent error on a source disk is
// data loss (redundancy exhausted); a transient one propagates for the
// serving layer to retry.
func (a *Array) reconstructRead(t sim.Time, off, n uint64, avoid int) (sim.Time, error) {
	a.degradedReads++
	done := t
	readSrc := func(i int) error {
		a.diskIOs++
		c, err := a.disks[i].Access(t, disk.Read, off, n)
		done = sim.MaxTime(done, c)
		if err == nil {
			return nil
		}
		if fault.IsTransient(err) {
			a.transientErrs++
			return err
		}
		a.dataLossErrs++
		return fault.New(fault.KindDataLoss, fault.Permanent, i, off, t)
	}
	if a.level == RAID1 {
		return done, readSrc(a.mirrorOf(avoid))
	}
	for i := range a.disks {
		if i == avoid {
			continue
		}
		if err := readSrc(i); err != nil {
			return done, err
		}
	}
	return done, nil
}

// readDisk is the array's one fault-absorbing disk read: [off, off+n)
// of disk d, reconstructed around a failed device, a device that fails
// under this very access (degrade, install the spare, reconstruct) and
// a latent sector error (reconstruct, unless redundancy is already spent
// on another disk — that is data loss). repair writes the rebuilt range
// back so the drive remaps the bad sectors (the injector heals on
// write); a read-modify-write passes false, because its write phase
// covers exactly the ranges it read. Transient errors propagate.
func (a *Array) readDisk(t sim.Time, d int, off, n uint64, repair bool) (sim.Time, error) {
	if d == a.failed && !a.spareHolds(off, n) {
		return a.reconstructRead(t, off, n, d)
	}
	a.diskIOs++
	c, err := a.disks[d].Access(t, disk.Read, off, n)
	if err == nil {
		return c, nil
	}
	fe, ok := err.(*fault.Error)
	if !ok {
		return c, err
	}
	switch fe.Kind {
	case fault.KindDiskFailed: // rejected up front: c is t
		if lerr := a.onDiskFailure(d, off, t); lerr != nil {
			return c, lerr
		}
		return a.reconstructRead(t, off, n, d)
	case fault.KindSectorError:
		if a.level == RAID0 || (a.failed >= 0 && a.failed != d) {
			a.dataLossErrs++
			return c, fault.New(fault.KindDataLoss, fault.Permanent, d, fe.Block, t)
		}
		done, rerr := a.reconstructRead(t, off, n, d)
		done = sim.MaxTime(done, c)
		if rerr != nil || !repair {
			return done, rerr
		}
		a.diskIOs++
		wc, _ := a.disks[d].AccessAfter(t, done, disk.Write, off, n)
		a.sectorRepairs++
		return sim.MaxTime(done, wc), nil
	default:
		a.transientErrs++
		return c, err
	}
}

// readSegment serves one segment of a logical read. RAID1 picks the
// copy first: the partner when the segment's disk is lost, else the
// less-loaded healthy one.
func (a *Array) readSegment(t sim.Time, s segment) (sim.Time, error) {
	d := s.disk
	if a.level == RAID1 {
		m := a.mirrorOf(d)
		lost := d == a.failed && !a.spareHolds(s.off, s.n)
		if lost || m != a.failed && a.disks[m].BusyUntil() < a.disks[d].BusyUntil() {
			d = m
		}
	}
	return a.readDisk(t, d, s.off, s.n, true)
}

// Read submits a logical read arriving at t and returns the completion
// time (the max over the parallel per-disk I/Os). In degraded mode,
// segments on the failed disk are reconstructed from the surviving
// redundancy; latent sector errors are reconstructed and repaired in
// place. Transient faults and redundancy-exhausted data loss propagate
// as typed errors with the virtual time already spent.
func (a *Array) Read(t sim.Time, start, n uint64) (sim.Time, error) {
	if n == 0 {
		return t, nil
	}
	a.checkRange(start, n)
	a.advanceRebuild(t)
	a.logicalReads++
	done := t
	for _, s := range a.split(start, n) {
		c, err := a.readSegment(t, s)
		done = sim.MaxTime(done, c)
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// Write submits a logical write arriving at t and returns the
// completion time. RAID0 writes data units directly. RAID5 groups
// segments by stripe: a fully covered stripe is written in place
// (data + parity, no reads); a partially covered stripe performs
// read-modify-write.
func (a *Array) Write(t sim.Time, start, n uint64) (sim.Time, error) {
	if n == 0 {
		return t, nil
	}
	a.checkRange(start, n)
	a.advanceRebuild(t)
	a.logicalWrites++
	segs := a.split(start, n)

	if a.level != RAID5 {
		// RAID0 writes each data unit in place; RAID1 its mirror as well
		done := t
		for _, s := range segs {
			c, err := a.writeTo(t, t, s.disk, s.off, s.n)
			if err == nil && a.level == RAID1 {
				var mc sim.Time
				mc, err = a.writeTo(t, t, a.mirrorOf(s.disk), s.off, s.n)
				c = sim.MaxTime(c, mc)
			}
			done = sim.MaxTime(done, c)
			if err != nil {
				return done, err
			}
		}
		return done, nil
	}

	// group segments by stripe, preserving order
	done := t
	for i := 0; i < len(segs); {
		j := i
		for j < len(segs) && segs[j].stripe == segs[i].stripe {
			j++
		}
		c, err := a.writeStripe(t, segs[i:j])
		done = sim.MaxTime(done, c)
		if err != nil {
			return done, err
		}
		i = j
	}
	return done, nil
}

// writeTo issues one disk write with degraded-mode and fault handling:
// a write to the failed disk completes immediately when no spare is
// installed (parity/mirror carries it); a device failure discovered by
// the write itself degrades the array and the write is then absorbed
// the same way (data loss where nothing is left to absorb it: RAID0, a
// second disk); transient errors propagate.
func (a *Array) writeTo(t, ready sim.Time, d int, off, n uint64) (sim.Time, error) {
	if d == a.failed && !a.rebuilding {
		return ready, nil // lost write: redundancy reconstructs it
	}
	a.diskIOs++
	c, err := a.disks[d].AccessAfter(t, ready, disk.Write, off, n)
	if err == nil {
		return c, nil
	}
	if fe, ok := err.(*fault.Error); ok && fe.Kind == fault.KindDiskFailed {
		if lerr := a.onDiskFailure(d, off, t); lerr != nil {
			return c, lerr
		}
		// degraded now; the write is covered by the surviving redundancy
		return sim.MaxTime(ready, c), nil
	}
	a.transientErrs++
	return c, err
}

// writeStripe performs the RAID5 write of one stripe's segments.
func (a *Array) writeStripe(t sim.Time, segs []segment) (sim.Time, error) {
	stripe := segs[0].stripe
	pdisk := a.parityDisk(stripe)
	dps := uint64(a.DataDisksPerStripe())

	var covered uint64
	lo, hi := a.unit, uint64(0) // within-unit union range for parity
	for _, s := range segs {
		covered += s.n
		if s.inUnit < lo {
			lo = s.inUnit
		}
		if s.inUnit+s.n > hi {
			hi = s.inUnit + s.n
		}
	}
	// a fully covered stripe has lo = 0 and hi = unit: whole-unit parity
	full := covered == dps*a.unit
	parityOff := stripe*a.unit + lo
	parityLen := hi - lo

	ready := t // when the write phase may start
	if full {
		a.fullStripes++
	} else {
		// read-modify-write: read old data ranges and old parity, then
		// write new data and parity after all reads complete.
		a.rmwStripes++
		for _, s := range segs {
			c, err := a.readDisk(t, s.disk, s.off, s.n, false)
			ready = sim.MaxTime(ready, c)
			if err != nil {
				return ready, err
			}
		}
		c, err := a.readDisk(t, pdisk, parityOff, parityLen, false)
		ready = sim.MaxTime(ready, c)
		if err != nil {
			return ready, err
		}
	}

	done := ready
	for _, s := range segs {
		c, err := a.writeTo(t, ready, s.disk, s.off, s.n)
		done = sim.MaxTime(done, c)
		if err != nil {
			return done, err
		}
	}
	c, err := a.writeTo(t, ready, pdisk, parityOff, parityLen)
	return sim.MaxTime(done, c), err
}

// Stats is a snapshot of array-level accounting.
type Stats struct {
	LogicalReads, LogicalWrites int64
	DiskIOs                     int64
	RMWStripes, FullStripes     int64
	DegradedReads               int64
	SectorRepairs               int64
	TransientErrors             int64
	DataLossErrors              int64
	FailEvents                  int64
	RebuildIOs                  int64
	RebuildsDone                int64
	Disk                        []disk.Stats
}

// Stats returns a snapshot of the array's counters.
func (a *Array) Stats() Stats {
	s := Stats{
		LogicalReads: a.logicalReads, LogicalWrites: a.logicalWrites,
		DiskIOs: a.diskIOs, RMWStripes: a.rmwStripes, FullStripes: a.fullStripes,
		DegradedReads: a.degradedReads,
		SectorRepairs: a.sectorRepairs, TransientErrors: a.transientErrs,
		DataLossErrors: a.dataLossErrs, FailEvents: a.failEvents,
		RebuildIOs: a.rebuildIOs, RebuildsDone: a.rebuildsDone,
	}
	for _, d := range a.disks {
		s.Disk = append(s.Disk, d.Stats())
	}
	return s
}

// Backlog reports the total queued work across spindles at time t.
func (a *Array) Backlog(t sim.Time) sim.Duration {
	var sum sim.Duration
	for _, d := range a.disks {
		if d.BusyUntil() > t {
			sum += d.BusyUntil().Sub(t)
		}
	}
	return sum
}
