package metrics

// Phase identifies one stage of a request's life inside an engine
// shard. The write path decomposes into queue wait (server only),
// chunking/fingerprinting, index probe (on-disk index zone I/O),
// map-table update, and disk service; reads into queue wait, index/map
// lookup and disk service.
type Phase int

const (
	// PhaseQueueWait is the time a request spent queued behind other
	// requests on its shard before service began. Only the serving
	// layer observes it; pure replay has no queue.
	PhaseQueueWait Phase = iota
	// PhaseFingerprint is chunking plus fingerprint computation.
	PhaseFingerprint
	// PhaseIndexProbe is on-disk index-zone I/O (probes and zone
	// writes) issued when the in-memory index misses.
	PhaseIndexProbe
	// PhaseMapUpdate is LBA→PBA map-table maintenance, including the
	// metadata-only updates of deduplicated (removed) writes.
	PhaseMapUpdate
	// PhaseDiskRead is data-block read service at the RAID array.
	PhaseDiskRead
	// PhaseDiskWrite is data-block write service at the RAID array.
	PhaseDiskWrite

	// NumPhases is the number of defined phases.
	NumPhases int = iota
)

var phaseNames = [NumPhases]string{
	"queue_wait",
	"fingerprint",
	"index_probe",
	"map_update",
	"disk_read",
	"disk_write",
}

// String returns the snake_case phase name used in metric names and
// trace records.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseSet records per-phase latencies. Each phase feeds a histogram
// registered as "phase_<name>_us", and the set additionally keeps a
// per-request scratch (`last`) so that a sampled trace can read back
// the full phase timeline of the request that just completed. Begin
// resets the scratch; Observe adds to both the histogram and the
// scratch, accumulating when one request issues several I/Os in the
// same phase.
type PhaseSet struct {
	hists [NumPhases]*Histogram
	last  [NumPhases]int64
}

func newPhaseSet(r *Registry) *PhaseSet {
	ps := &PhaseSet{}
	for i := 0; i < NumPhases; i++ {
		ps.hists[i] = r.Histogram("phase_" + phaseNames[i] + "_us")
	}
	return ps
}

// Begin marks the start of a new request, clearing the per-request
// phase scratch.
func (ps *PhaseSet) Begin() {
	ps.last = [NumPhases]int64{}
}

// Observe records us microseconds spent in phase p, both into the
// phase's histogram and into the current request's scratch. Negative
// durations clamp to zero.
func (ps *PhaseSet) Observe(p Phase, us int64) {
	if us < 0 {
		us = 0
	}
	ps.hists[p].Observe(us)
	ps.last[p] += us
}

// LastTimeline copies the current request's per-phase scratch into a
// map keyed by phase name, skipping zero phases. Used when a sampled
// trace record is cut; allocates, but only on the sampled path.
func (ps *PhaseSet) LastTimeline() map[string]int64 {
	m := make(map[string]int64, NumPhases)
	for i := 0; i < NumPhases; i++ {
		if ps.last[i] != 0 {
			m[phaseNames[i]] = ps.last[i]
		}
	}
	return m
}
