// Package chaos is the fault-injection harness: named, seeded fault
// scenarios for the serving layer, plus the read-back integrity oracle
// that decides whether a chaos run preserved every acknowledged write.
//
// A scenario compiles to a fault.Schedule per shard (seeded so runs
// replay bit-for-bit); the oracle keeps a dense LBA→content-ID shadow
// of the logical volume strictly from *acknowledged* completions, then
// reads the whole footprint back, in LBA order, through the server's
// logical path at the end. The shadow is a trace.Volume: one 8.25 KiB
// page per routing granule (1 024 LBAs) the run writes, plus a 2 KiB
// directory and an 8 KiB leaf per 2^20 LBAs spanned, so recording a
// write is an array store and a sparse run pays at most a page per
// granule it touches. Any divergence — a lost block, a mapping
// cross-referenced to another tenant's content, a torn multi-chunk
// write that was reported successful — fails the run. This is the
// dedup-specific failure detector: because the Map table shares
// physical blocks m-to-1, one mishandled fault corrupts many LBAs, and
// exactly that blast radius is what the oracle measures.
package chaos

import (
	"fmt"
	"strings"
	"sync"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Scenario says what a named scenario is: the fault plan Build compiles
// against every shard's array, and what a serving run arms beside it.
type Scenario struct {
	Name string
	Plan string // the fault plan, when it is another scenario's ("" = its own)
	// Scanner attaches the background dedup scanner to every shard, its
	// relocation and remap traffic racing the faults. Any oracle run with
	// the scanner attached ends in a whole-node crash recovery, a second
	// oracle pass and a per-shard consistency audit.
	Scanner bool
	// Tier enables the global fingerprint tier (whose shard agents wrap
	// the scanner): hints, folds and pins race the faults, and the
	// cross-shard pin audit joins the verdict.
	Tier bool
	// Outage crashes one shard mid-run as an isolated failure domain and
	// rejoins it later; the survivors are the point, so it needs two.
	Outage bool
}

var scenarios = []Scenario{
	{Name: "sector"},
	{Name: "diskfail"},
	{Name: "storm"},
	{Name: "limp"},
	{Name: "full"},
	{Name: "bgdedup", Plan: "full", Scanner: true},
	{Name: "globalfp", Tier: true},
	// the disk-level plan stays modest so the verdict isolates the
	// outage machinery: epoch fencing, crash notices, hint purges and
	// the rejoin pin re-audit
	{Name: "shardcrash", Plan: "sector", Tier: true, Outage: true},
}

// Scenarios returns the known scenario names.
func Scenarios() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	return names
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, error) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (want one of %s)",
		name, strings.Join(Scenarios(), ", "))
}

// Build compiles a named scenario's fault plan for one array: ndisks
// spindles of perDisk data blocks each, over a run of roughly horizon
// virtual time. Seed drives the transient coin; the same (name, seed,
// horizon) is the same schedule.
func Build(name string, ndisks int, perDisk uint64, horizon sim.Time, seed uint64) (fault.Schedule, error) {
	if ndisks < 1 || perDisk == 0 {
		return fault.Schedule{}, fmt.Errorf("chaos: degenerate array (%d disks, %d blocks)", ndisks, perDisk)
	}
	if horizon <= 0 {
		return fault.Schedule{}, fmt.Errorf("chaos: non-positive horizon %v", horizon)
	}
	sc, err := Lookup(name)
	if err != nil {
		return fault.Schedule{}, err
	}
	plan := sc.Plan
	if plan == "" {
		plan = sc.Name
	}
	s := fault.Schedule{Seed: seed}

	// latent sector errors: a handful of ranges spread across the first
	// two data disks, present from the start (they surface on first read)
	sectors := func() {
		for d := 0; d < ndisks && d < 2; d++ {
			for k := uint64(0); k < 4; k++ {
				start := (perDisk / 5) * (k + 1)
				count := uint64(64)
				if start+count > perDisk {
					count = perDisk - start
				}
				s.Sectors = append(s.Sectors, fault.SectorRange{
					Disk: d, Start: start, Count: count, From: 0,
				})
			}
		}
	}
	// transient-error storm against every disk in the middle of the run
	storm := func(from, until sim.Time, perMille int) {
		s.Transients = append(s.Transients, fault.TransientWindow{
			Disk: -1, From: from, Until: until, PerMille: perMille,
		})
	}

	switch plan {
	case "sector":
		sectors()
	case "diskfail":
		s.Fails = append(s.Fails, fault.DiskFail{Disk: ndisks - 1, At: horizon / 3})
	case "storm":
		storm(horizon/4, horizon/2, 150)
	case "limp":
		s.Slow = append(s.Slow, fault.SlowWindow{
			Disk: ndisks / 2, From: horizon / 4, Until: horizon * 3 / 4, Factor: 4,
		})
	case "full":
		// the acceptance combo: latent sectors from the start, a whole-
		// disk failure mid-run (degraded + online rebuild), and a late
		// transient storm hammering the retry path while rebuilding
		sectors()
		s.Fails = append(s.Fails, fault.DiskFail{Disk: ndisks - 1, At: horizon / 2})
		storm(horizon*5/8, horizon*7/8, 100)
	case "globalfp":
		// latent sectors from the start (fold revalidation reads hit
		// them), a whole-disk failure mid-run, and an early storm while
		// hints and folds are still landing
		sectors()
		s.Fails = append(s.Fails, fault.DiskFail{Disk: ndisks - 1, At: horizon / 2})
		storm(horizon/4, horizon/2, 100)
	default:
		panic("chaos: scenario table names plan " + plan + ", which Build does not compile")
	}
	return s, nil
}

// Violation is one integrity failure found by the oracle.
type Violation struct {
	LBA  uint64
	Want uint64 // acknowledged content ID
	Got  uint64 // content actually read back
	Lost bool   // block resolved to nothing at all
}

// String renders the violation.
func (v Violation) String() string {
	if v.Lost {
		return fmt.Sprintf("lba %d: acknowledged content %d lost (unmapped)", v.LBA, v.Want)
	}
	return fmt.Sprintf("lba %d: want content %d, read %d (cross-referenced)", v.LBA, v.Want, v.Got)
}

// Oracle is the shadow volume. Writers record acknowledged completions
// (and mark ranges of failed writes indeterminate — a torn write the
// server *reported failed* is allowed to leave either old or new
// content); Check reads everything back at the end.
//
// The shadow tracks what a *routed single-block read* can observe. A
// write spanning a routing-granule boundary is served wholly by its
// first chunk's shard, so the spilled chunks update that shard's map
// table — invisible to reads, which route each LBA to its owner shard
// (whose own mapping the spill write never touched). Those chunks are
// therefore excluded from the shadow: the owner shard's prior
// expectation still holds.
type Oracle struct {
	owner func(lba uint64) int // LBA → owning shard; nil = single shard

	mu sync.Mutex
	// want holds each acknowledged block's content; its mark plane is
	// the indeterminate set
	want         trace.Volume
	acked        int64
	failedWrites int64
	spilled      int64 // chunks excluded as cross-granule spill
}

// NewOracle returns an empty shadow volume. owner maps an LBA to its
// routing shard (Server.Shard); nil means everything is owned.
func NewOracle(owner func(lba uint64) int) *Oracle {
	return &Oracle{owner: owner}
}

// owned reports whether a routed read of lba reaches the shard that
// served the write.
func (o *Oracle) owned(lba uint64, shard int) bool {
	return o.owner == nil || o.owner(lba) == shard
}

// RecordWrite records an acknowledged (successful) write served by
// shard: the owned blocks' expected content is now exactly the written
// content, even if the range was previously indeterminate.
func (o *Oracle) RecordWrite(r *api.Request, shard int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.acked++
	for i, id := range r.Content {
		lba := r.LBA + uint64(i)
		if !o.owned(lba, shard) {
			o.spilled++
			continue
		}
		o.want.Set(lba, id)
	}
}

// RecordFailedWrite marks the write's owned range indeterminate: the
// request errored, so the storage may legitimately hold either
// generation (or a torn mix across chunks). Requests the server refused
// without touching the engine (shed, breaker, deadline-before-start)
// should NOT be marked — for those the old expectation still holds;
// pass touched = false to record nothing.
func (o *Oracle) RecordFailedWrite(r *api.Request, shard int, touched bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failedWrites++
	if !touched {
		return
	}
	for i := range r.Content {
		if lba := r.LBA + uint64(i); o.owned(lba, shard) {
			o.want.Mark(lba)
		}
	}
}

// Stats reports acknowledged and failed writes recorded, how many
// blocks ended indeterminate, and how many chunks were excluded as
// cross-granule spill.
func (o *Oracle) Stats() (acked, failed int64, indeterminate int, spilled int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acked, o.failedWrites, o.want.Marks(), o.spilled
}

// Check reads every acknowledged block back through read (the logical
// LBA→content resolution path, e.g. Server.ReadContent) in LBA order
// and returns the violations, plus the number of blocks verified.
// Indeterminate blocks are skipped. Check runs once recording has
// stopped: it walks the shadow without the lock, so read may take any.
func (o *Oracle) Check(read func(lba uint64) (uint64, bool)) ([]Violation, int) {
	var out []Violation
	checked := 0
	o.want.Each(func(lba uint64, id chunk.ContentID, indeterminate bool) {
		if indeterminate {
			return
		}
		checked++
		switch got, ok := read(lba); {
		case !ok:
			out = append(out, Violation{LBA: lba, Want: uint64(id), Lost: true})
		case got != uint64(id):
			out = append(out, Violation{LBA: lba, Want: uint64(id), Got: got})
		}
	})
	return out, checked
}
