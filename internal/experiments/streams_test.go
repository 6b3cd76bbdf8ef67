package experiments

import "testing"

// TestStreamsDynamicBeatsStatic is the headline apportionment claim:
// on the adversarial two-tenant mix, the locality-driven apportioner
// removes more writes in total than EVERY static split of the index
// partition, because the tenants' burst demands are anti-phase and no
// fixed division serves both.
func TestStreamsDynamicBeatsStatic(t *testing.T) {
	e := NewEnv(0.25, 2)
	_, rows := e.Streams()

	var dynamic *StreamsRow
	for i := range rows {
		if rows[i].Dynamic {
			dynamic = &rows[i]
		}
	}
	if dynamic == nil {
		t.Fatal("sweep has no dynamic row")
	}
	if dynamic.TotalRemoved == 0 {
		t.Fatal("dynamic apportionment removed no writes")
	}
	for _, r := range rows {
		if r.Dynamic || r.Removed == nil { // skip dynamic itself and the shared reference
			continue
		}
		if dynamic.TotalRemoved <= r.TotalRemoved {
			t.Errorf("dynamic removed %d writes, not more than %s's %d",
				dynamic.TotalRemoved, r.Variant, r.TotalRemoved)
		}
	}
	// both tenants served, neither starved: the win must come from
	// time-sharing, not from handing everything to one stream
	for _, s := range []uint32{1, 2} {
		if dynamic.Removed[s] == 0 {
			t.Errorf("dynamic starved stream %d (0 writes removed)", s)
		}
	}
	// quota gauges exported and bounded by the index partition
	if q := dynamic.Quota[1] + dynamic.Quota[2]; q <= 0 || q > advPartitionEntries+2 {
		t.Errorf("final stream quotas sum to %d, want (0, %d]", q, advPartitionEntries)
	}
}

// advPartitionEntries mirrors the index partition the adversarial mix
// is tuned against (workload.AdvMemoryBytes / 2 / 64-byte entries).
const advPartitionEntries = 8192

// TestStreamsScanContainsPolluter checks the pollution-containment
// story: adding a churning scan tenant (working set 4× the partition)
// collapses the shared cache to ~zero inline dedup, while per-stream
// apportionment floors the scan and keeps serving the burst tenants.
func TestStreamsScanContainsPolluter(t *testing.T) {
	e := NewEnv(0.25, 2)
	_, rows := e.StreamsScan()

	var shared, dynamic *StreamsRow
	for i := range rows {
		if rows[i].Dynamic {
			dynamic = &rows[i]
		} else {
			shared = &rows[i]
		}
	}
	if shared == nil || dynamic == nil {
		t.Fatal("scan sweep missing shared or dynamic row")
	}
	if dynamic.TotalRemoved <= shared.TotalRemoved {
		t.Fatalf("dynamic removed %d writes vs shared %d; stream isolation should win under pollution",
			dynamic.TotalRemoved, shared.TotalRemoved)
	}
	// the scan stream ends floored, not starved to zero quota while
	// active, and its hopeless duplicates are not cached inline
	if q := dynamic.Quota[3]; q <= 0 || q > advPartitionEntries/5 {
		t.Errorf("scan stream final quota %d, want within (0, %d] (the shared floor)",
			q, advPartitionEntries/5)
	}
}
