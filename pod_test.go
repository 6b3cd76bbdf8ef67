package pod

import (
	"math"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/experiments"
)

// wr and rd build requests for the shared Do API.
func wr(tm int64, lba uint64, ids ...ContentID) *Request {
	return &Request{Time: tm, Op: OpWrite, LBA: lba, Content: ids}
}

func rd(tm int64, lba uint64, n int) *Request {
	return &Request{Time: tm, Op: OpRead, LBA: lba, Chunks: n}
}

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Scheme() != SchemePOD {
		t.Fatalf("default scheme = %s, want POD", sys.Scheme())
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Scheme: "bogus"},
		{Disks: 2},                                // too few for RAID5
		{StripeUnitKB: 6},                         // not chunk-aligned
		{MemoryMB: -1},                            // negative budget
		{Scheme: SchemeNative, Chunking: "gear"},  // CDC needs a deduplicating scheme
		{Scheme: SchemeFullDedupe, BGDedup: true}, // the scanner complements the selective schemes
		{Scheme: SchemeIDedup, StreamAware: true}, // so does stream apportionment
		{Scheme: SchemePOD, Chunking: "rabin"},    // unknown chunker
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(Config{Disks: 2, Layout: "raid0"}); err != nil {
		t.Errorf("2-disk RAID0 should be accepted: %v", err)
	}
}

// TestNewRejectsNegativeKnobs: a negative value New cannot honour is an
// error naming its field — not journaling silently off (NVRAMKB, where
// only -1 means that) or a threshold taken as given.
func TestNewRejectsNegativeKnobs(t *testing.T) {
	for field, cfg := range map[string]Config{
		"NVRAMKB":             {NVRAMKB: -5},
		"Threshold":           {Threshold: -2},
		"IDedupThreshold":     {Scheme: SchemeIDedup, IDedupThreshold: -1},
		"BGDedupBlocksPerSec": {BGDedup: true, BGDedupBlocksPerSec: -10},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%+v: err = %v, want one naming %s", cfg, err, field)
		}
	}
	if _, err := New(Config{NVRAMKB: -1}); err != nil {
		t.Errorf("NVRAMKB -1 (journaling off) refused: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, scheme := range Schemes() {
		sys, err := New(Config{Scheme: scheme, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Do(wr(0, 100, 11, 22, 33))
		if err != nil || res.Service <= 0 {
			t.Fatalf("%s: write service=%d err=%v", scheme, res.Service, err)
		}
		res, err = sys.Do(rd(1_000_000, 100, 3))
		if err != nil || res.Service <= 0 {
			t.Fatalf("%s: read service=%d err=%v", scheme, res.Service, err)
		}
		if res.Complete != res.Start+res.Service || res.Sojourn != res.Service {
			t.Fatalf("%s: inconsistent result %+v", scheme, res)
		}
		for i, want := range []uint64{11, 22, 33} {
			got, ok := sys.ReadBack(100 + uint64(i))
			if !ok || got != want {
				t.Fatalf("%s: readback lba %d = %d,%v want %d", scheme, 100+i, got, ok, want)
			}
		}
	}
}

func TestTimeOrderingEnforced(t *testing.T) {
	sys, _ := New(Config{})
	if _, err := sys.Do(wr(1000, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Do(wr(500, 1, 2)); err == nil {
		t.Fatal("out-of-order request must be rejected")
	}
}

func TestMalformedRequestsRejected(t *testing.T) {
	sys, _ := New(Config{})
	if _, err := sys.Do(wr(0, 0)); err == nil {
		t.Fatal("empty write must fail")
	}
	if _, err := sys.Do(rd(0, 0, 0)); err == nil {
		t.Fatal("empty read must fail")
	}
	if _, err := sys.Do(&Request{Op: OpRead, Chunks: 1, Content: []ContentID{1}}); err == nil {
		t.Fatal("read carrying content must fail")
	}
	if _, err := sys.Do(&Request{Time: -1, Op: OpWrite, Content: []ContentID{1}}); err == nil {
		t.Fatal("negative time must fail")
	}
	if _, err := sys.Do(rd(0, math.MaxUint64, 1)); err != nil {
		t.Fatalf("a one-chunk read of the last address: %v", err)
	}
	// the second chunk would land on lba 0
	if _, err := sys.Do(wr(0, math.MaxUint64, 7, 8)); err == nil {
		t.Fatal("a write wrapping past 2^64 must fail")
	}
	if id, ok := sys.ReadBack(0); ok {
		t.Fatalf("lba 0 holds content %d; nothing was written there", id)
	}
	if _, err := sys.Do(rd(0, math.MaxUint64-1, 3)); err == nil {
		t.Fatal("a read wrapping past 2^64 must fail")
	}
}

// TestRequestRoundTrip pins the Request/Do surface the removed
// positional wrappers migrated to.
func TestRequestRoundTrip(t *testing.T) {
	sys, err := New(Config{Scheme: SchemeSelectDedupe, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Do(&Request{Time: 0, Op: OpWrite, LBA: 0, Content: []ContentID{5, 6}})
	if err != nil || res.Service <= 0 {
		t.Fatalf("write rt=%d err=%v", res.Service, err)
	}
	res, err = sys.Do(&Request{Time: 1000, Op: OpRead, LBA: 0, Chunks: 2})
	if err != nil || res.Service <= 0 {
		t.Fatalf("read rt=%d err=%v", res.Service, err)
	}
	if got, ok := sys.ReadBack(1); !ok || got != 6 {
		t.Fatalf("readback = %d,%v", got, ok)
	}
}

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"pod": SchemePOD, "POD": SchemePOD,
		"select-dedupe": SchemeSelectDedupe, "SelectDedupe": SchemeSelectDedupe,
		"select_dedupe": SchemeSelectDedupe, "full dedupe": SchemeFullDedupe,
		"idedup": SchemeIDedup, "i/o-dedup": SchemeIODedup, "iodedup": SchemeIODedup,
		"post-process": SchemePostProcess, "native": SchemeNative,
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "zfs", "dedupe"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) must fail", bad)
		}
	}
}

func TestDeduplicationVisibleThroughAPI(t *testing.T) {
	sys, err := New(Config{Scheme: SchemeSelectDedupe, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Do(wr(0, 0, 7))
	sys.Do(wr(1_000_000, 500, 7)) // same content elsewhere
	st := sys.Stats()
	if st.WritesRemovedPct != 50 {
		t.Fatalf("removed = %.1f%%, want 50%%", st.WritesRemovedPct)
	}
	if st.Category1 != 1 {
		t.Fatalf("cat1 = %d, want 1", st.Category1)
	}
	if st.UsedBlocks != 1 {
		t.Fatalf("used = %d blocks, want 1 (deduplicated)", st.UsedBlocks)
	}
}

func TestGenerateWorkload(t *testing.T) {
	reqs, warm, err := GenerateWorkload("web-vm", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 || warm < 0 || warm >= len(reqs) {
		t.Fatalf("len=%d warm=%d", len(reqs), warm)
	}
	if _, _, err := GenerateWorkload("nope", 1); err == nil {
		t.Fatal("unknown workload must fail")
	}
	if _, _, err := GenerateWorkload("mail", 0); err == nil {
		t.Fatal("zero scale must fail")
	}
}

func TestReplayAndReset(t *testing.T) {
	reqs, warm, err := GenerateWorkload("homes", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Scheme: SchemePOD, DiskBlocks: 1 << 18, MemoryMB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Replay(reqs[:warm]); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	sum, err := sys.Replay(reqs[warm:])
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reads+sum.Writes != int64(len(reqs)-warm) {
		t.Fatalf("measured %d requests, want %d", sum.Reads+sum.Writes, len(reqs)-warm)
	}
	if !strings.Contains(sum.String(), "POD") {
		t.Fatalf("summary string = %q", sum.String())
	}
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 3 || names[0] != "web-vm" || names[2] != "mail" {
		t.Fatalf("names = %v", names)
	}
}

func TestRunExperimentSmall(t *testing.T) {
	out, err := RunExperiment("table2", 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"web-vm", "homes", "mail"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
	if _, err := RunExperiment("bogus", 0.01, 1); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if _, err := RunExperiment("fig8", -1, 1); err == nil {
		t.Fatal("bad scale must fail")
	}
	out, err = RunExperiment("table1", 1, 1)
	if err != nil || !strings.Contains(out, "POD") {
		t.Fatalf("table1: %v", err)
	}
}

// TestExperimentIDs: the catalogue is the only list. Every id it holds
// runs through the facade, nothing else does, and the refusal of an
// unknown id names exactly that list (cmd/podbench's tests check the
// command against the same one).
func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != len(experiments.Catalogue) {
		t.Fatalf("ids = %v, the catalogue holds %d", ids, len(experiments.Catalogue))
	}
	for i, id := range ids {
		if id != experiments.Catalogue[i].ID {
			t.Fatalf("ids[%d] = %s, the catalogue has %s", i, id, experiments.Catalogue[i].ID)
		}
		t.Run(id, func(t *testing.T) {
			out, err := RunExperiment(strings.ToUpper(id), 0.01, 2)
			if err != nil || !strings.Contains(out, "\n") {
				t.Fatalf("RunExperiment(%s) = %q, %v", id, out, err)
			}
		})
	}
	_, err := RunExperiment("fig12", 0.01, 1)
	if err == nil || !strings.Contains(err.Error(), strings.Join(ids, ", ")) {
		t.Fatalf("unknown id: %v, want an error listing %v", err, ids)
	}
}

func TestCrashRecoveryThroughAPI(t *testing.T) {
	sys, err := New(Config{Scheme: SchemePOD, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Do(wr(0, 0, 1, 2))
	sys.Do(wr(1_000_000, 100, 1, 2)) // deduplicated copy
	n, err := sys.CrashAndRecover()
	if err != nil || n == 0 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	for _, lba := range []uint64{0, 1, 100, 101} {
		want := uint64(1 + lba%2)
		if got, ok := sys.ReadBack(lba); !ok || got != want {
			t.Fatalf("lba %d = %d,%v want %d", lba, got, ok, want)
		}
	}
	// unsupported scheme reports an error
	nat, _ := New(Config{Scheme: SchemeNative})
	if _, err := nat.CrashAndRecover(); err == nil {
		t.Fatal("Native must not claim recovery support")
	}
}

func TestSchemesComparable(t *testing.T) {
	// the paper's headline, through the public API: POD beats Native
	// on a redundant workload
	reqs, warm, _ := GenerateWorkload("web-vm", 0.02)
	results := map[Scheme]Summary{}
	for _, scheme := range []Scheme{SchemeNative, SchemePOD} {
		sys, err := New(Config{Scheme: scheme, MemoryMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		sys.Replay(reqs[:warm])
		sys.ResetStats()
		sum, err := sys.Replay(reqs[warm:])
		if err != nil {
			t.Fatal(err)
		}
		results[scheme] = sum
	}
	if results[SchemePOD].MeanWriteMicros >= results[SchemeNative].MeanWriteMicros {
		t.Errorf("POD write RT (%.0fµs) must beat Native (%.0fµs)",
			results[SchemePOD].MeanWriteMicros, results[SchemeNative].MeanWriteMicros)
	}
	if results[SchemePOD].UsedBlocks >= results[SchemeNative].UsedBlocks {
		t.Errorf("POD capacity (%d) must beat Native (%d)",
			results[SchemePOD].UsedBlocks, results[SchemeNative].UsedBlocks)
	}
}

func TestNVRAMDisabledBlocksRecovery(t *testing.T) {
	sys, err := New(Config{Scheme: SchemePOD, NVRAMKB: -1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Do(wr(0, 0, 1))
	if _, err := sys.CrashAndRecover(); err == nil {
		t.Fatal("recovery must fail with journaling disabled")
	}
}

func TestLayoutSelection(t *testing.T) {
	if _, err := New(Config{Layout: "raid1", Disks: 4}); err != nil {
		t.Fatalf("raid1: %v", err)
	}
	if _, err := New(Config{Layout: "raid1", Disks: 3}); err == nil {
		t.Fatal("odd-disk raid1 must fail")
	}
	if _, err := New(Config{Layout: "zfs"}); err == nil {
		t.Fatal("unknown layout must fail")
	}
	sys, err := New(Config{Layout: "raid0", Disks: 1, Scheme: SchemeNative})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Do(wr(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestSmallArrays: the index zone at the top of the array is 1/32 of
// it, and the iCache's swap-in reads used to assume that zone exceeds
// one 256-block batch. An array whose zone is exactly one batch, just
// under one, or far under must survive repartitions that grow the read
// cache (swap-ins read from the zone), and an array with no zone at all
// must be refused by New, not panic later.
func TestSmallArrays(t *testing.T) {
	for _, c := range []struct {
		diskBlocks uint64
		ok         bool
	}{
		// 4-disk RAID5 with a one-block stripe unit: 3 × diskBlocks of data
		{2731, true}, // 8193 data blocks: a zone of exactly 256
		{2730, true}, // 8190: a zone of 255
		{1024, true}, // 3072: a zone of 96
		{8, false},   // 24: no zone at all
	} {
		sys, err := New(Config{Scheme: SchemePOD, DiskBlocks: c.diskBlocks, StripeUnitKB: 4, MemoryMB: 8})
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "at least 32") {
				t.Errorf("%d-block disks: want a refusal naming the minimum, got %v", c.diskBlocks, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%d-block disks: %v", c.diskBlocks, err)
			continue
		}
		// 8 MB of cache holds 1024 blocks on the read side and remembers
		// as many in its ghost: cycling reads over 1536 written blocks
		// miss the cache and hit the ghost, so the Swap Module grows the
		// read cache 128 blocks at a time and swaps them back in
		now := int64(0)
		do := func(r *Request) {
			t.Helper()
			r.Time = now
			res, err := sys.Do(r)
			if err != nil || res.Err != nil {
				t.Fatalf("%d-block disks: %v / %v", c.diskBlocks, err, res.Err)
			}
			now = res.Complete + 1000
		}
		const working = 1536
		for i := uint64(0); i < working; i++ {
			do(wr(0, i, ContentID(i+1)))
		}
		for pass := 0; pass < 8; pass++ {
			for i := uint64(0); i < working; i++ {
				do(rd(0, i, 1))
			}
		}
		if n := sys.eng.Stats().SwapInIOs; n < 4 {
			t.Errorf("%d-block disks: %d swap-in reads; the test no longer drives the zone reads past one batch", c.diskBlocks, n)
		}
	}
}
