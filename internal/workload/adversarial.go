package workload

import (
	"math/rand"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// Adversarial tenant mixes for the per-stream apportionment experiments
// (EXPERIMENTS.md "Static vs dynamic apportionment"). Unlike the Table
// II profiles, these are precision instruments: every pool size below
// is tuned against one fixed index partition so that LRU's cyclic-
// access cliff falls exactly where the experiment needs it — a tenant's
// duplicate working set either fits its quota (near-perfect inline
// dedup) or exceeds it (near-zero), with no gentle middle.
//
// Three tenant personalities:
//
//   - bursty high-dup: silent between bursts; each burst brings a FRESH
//     duplicate working set of 0.6× the index partition and cycles it
//     round-robin. No static split below 60% serves any burst, and the
//     fresh-pool-per-burst structure makes hoarding quota between
//     bursts worthless.
//   - steady low-dup: a continuous trickle of fresh single-chunk writes
//     (keeping the stream active at the shared floor) plus bursts in
//     anti-phase with the first tenant. The anti-phase structure is the
//     adversarial core: the two tenants' demands never overlap, so any
//     fixed split starves at least one of them while a locality-driven
//     apportioner serves both.
//   - churning scan: rewrites a working set 4× the index partition
//     round-robin, forever. Its duplicates recur beyond any feasible
//     quota, so inline caching is pure pollution; the estimator floors
//     it and leaves its redundancy to out-of-line dedup.
//
// Generation is fully deterministic in scale alone.

const (
	// AdvMemoryBytes is the storage-cache DRAM the adversarial mixes
	// are tuned against: 1 MiB split 50/50 gives an 8192-entry index
	// partition at the default 64-byte entry footprint.
	AdvMemoryBytes = 1 << 20

	// advPhaseDur spans 16 of the default 250 ms apportionment
	// intervals: the estimator needs ~2-3 pool cycles (≈5 intervals) to
	// shift quota onto a returning burst, and the burst must outlive
	// that ramp by enough cycles for dynamic apportionment to beat a
	// static split that never ramps at all.
	advPhaseDur = 4 * sim.Second

	// Burst tenants: 614 extents × 8 chunks = 4912 fingerprints, 0.60
	// of the index partition, cycled 8× per burst.
	advBurstExtents = 614
	advBurstChunks  = 8
	advBurstCycles  = 8

	// Steady trickle: fresh single-chunk writes between bursts.
	advTricklePerPhase = 614

	// Scan tenant: 4096 extents × 8 chunks = 4× the index partition,
	// rewritten at the burst tenants' request rate, so one burst-pool
	// cycle shares a shared LRU with ≈4900 scan fingerprints — enough
	// to push the combined reuse distance past the whole partition.
	advScanExtents  = 4096
	advScanChunks   = 8
	advScanPerPhase = 4912

	// advTenantFootprint is each tenant's logical address space: burst
	// pool at the bottom, trickle bump region above it.
	advTenantFootprint = 1 << 15
)

// advPhases maps the experiment scale to an even burst-phase count
// (scale 1.0 = 8 phases, i.e. 4 anti-phase burst pairs).
func advPhases(scale float64) int {
	p := int(8*scale + 0.5)
	if p < 4 {
		p = 4
	}
	if p%2 == 1 {
		p++
	}
	return p
}

// advBursty generates one bursty tenant: bursts during phases of the
// given parity, an optional fresh-write trickle during the others.
func advBursty(name string, seed int64, parity int, trickle bool, phases int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: name}
	const poolChunks = advBurstExtents * advBurstChunks
	trickleBase := uint64(poolChunks + 1024) // bump region above the pool
	tricklePtr := trickleBase
	nextID := chunk.ContentID(1)
	trickleID := chunk.ContentID(1) << 36 // disjoint from burst-pool IDs
	burstReqs := advBurstExtents * advBurstCycles
	burstGap := int64(advPhaseDur) / int64(burstReqs)
	trickleGap := int64(advPhaseDur) / int64(advTricklePerPhase)
	for ph := 0; ph < phases; ph++ {
		start := sim.Time(int64(ph) * int64(advPhaseDur))
		if ph%2 == parity {
			// a fresh duplicate working set for this burst, cycled
			// round-robin: cycle 1 is cold, cycles 2..N dedupe inline
			// when (and only when) the whole pool fits the quota
			pool := make([][]chunk.ContentID, advBurstExtents)
			for e := range pool {
				ids := make([]chunk.ContentID, advBurstChunks)
				for j := range ids {
					ids[j] = nextID
					nextID++
				}
				pool[e] = ids
			}
			for i := 0; i < burstReqs; i++ {
				e := i % advBurstExtents
				tm := start.Add(sim.Duration(int64(i)*burstGap + rng.Int63n(burstGap/2+1)))
				cp := append([]chunk.ContentID(nil), pool[e]...)
				tr.Requests = append(tr.Requests, trace.Request{
					Time: tm, Op: trace.Write,
					LBA: uint64(e * advBurstChunks), N: advBurstChunks, Content: cp,
				})
			}
		} else if trickle {
			for i := 0; i < advTricklePerPhase; i++ {
				tm := start.Add(sim.Duration(int64(i)*trickleGap + rng.Int63n(trickleGap/2+1)))
				if tricklePtr+1 > advTenantFootprint {
					tricklePtr = trickleBase
				}
				tr.Requests = append(tr.Requests, trace.Request{
					Time: tm, Op: trace.Write,
					LBA: tricklePtr, N: 1, Content: []chunk.ContentID{trickleID},
				})
				tricklePtr++
				trickleID++
			}
		}
	}
	return tr
}

// advScan generates the churning scan tenant: a fixed working set 4×
// the index partition, rewritten round-robin at a steady rate.
func advScan(name string, seed int64, phases int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: name}
	gap := int64(advPhaseDur) / int64(advScanPerPhase)
	cursor := 0
	for ph := 0; ph < phases; ph++ {
		start := sim.Time(int64(ph) * int64(advPhaseDur))
		for i := 0; i < advScanPerPhase; i++ {
			e := cursor % advScanExtents
			cursor++
			tm := start.Add(sim.Duration(int64(i)*gap + rng.Int63n(gap/2+1)))
			ids := make([]chunk.ContentID, advScanChunks)
			for j := range ids {
				ids[j] = chunk.ContentID(e*advScanChunks+j) + 1
			}
			tr.Requests = append(tr.Requests, trace.Request{
				Time: tm, Op: trace.Write,
				LBA: uint64(e * advScanChunks), N: advScanChunks, Content: ids,
			})
		}
	}
	return tr
}

// advMerge relocates each tenant into a disjoint LBA and content-ID
// slice of the shared platform and merges by arrival time; Merge tags
// tenant i's requests with stream i+1.
func advMerge(name string, tenants []*trace.Trace, scanFootprint bool) (*trace.Trace, int, MixedDims) {
	var lbaBase uint64
	for i, t := range tenants {
		fp := uint64(advTenantFootprint)
		if scanFootprint && i == len(tenants)-1 {
			fp = advScanExtents * advScanChunks
		}
		offsetTenant(t, lbaBase, uint64(i)<<tenantIDBits)
		lbaBase += fp
	}
	merged := trace.Merge(name, tenants...)
	dims := MixedDims{FootprintChunks: lbaBase, MemoryBytes: AdvMemoryBytes}
	return merged, 0, dims
}

// AdversarialMix is the two-tenant apportionment benchmark: a bursty
// high-dup tenant (stream 1) against a steady low-dup tenant whose own
// duplicate bursts arrive exactly when the first tenant sleeps
// (stream 2). Returns the merged trace, the warm-up request count
// (zero: per-stream gauges cover the whole replay), and the platform
// dimensions the mix is tuned against.
func AdversarialMix(scale float64) (*trace.Trace, int, MixedDims) {
	phases := advPhases(scale)
	return advMerge("adversarial", []*trace.Trace{
		advBursty("bursty-highdup", 0x61647631, 0, false, phases),
		advBursty("steady-lowdup", 0x61647632, 1, true, phases),
	}, false)
}

// AdversarialScanMix adds the churning low-locality scan tenant
// (stream 3) to the two-tenant mix: the workload where a shared
// fingerprint cache collapses — the scan's 4×-partition working set
// flushes both burst pools between cycles — while per-stream quotas
// contain the pollution at the floor.
func AdversarialScanMix(scale float64) (*trace.Trace, int, MixedDims) {
	phases := advPhases(scale)
	return advMerge("adversarial-scan", []*trace.Trace{
		advBursty("bursty-highdup", 0x61647631, 0, false, phases),
		advBursty("steady-lowdup", 0x61647632, 1, true, phases),
		advScan("churn-scan", 0x61647633, phases),
	}, true)
}
