// Tests live in globalfp_test so they can drive the tier through the
// real engines (internal/server imports globalfp, and the end-to-end
// test here imports server).
package globalfp_test

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/globalfp"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

func testConfig(perDisk uint64) engine.Config {
	disks := make([]*disk.Disk, 4)
	for i := range disks {
		disks[i] = disk.New(disk.DefaultParams(perDisk))
	}
	return engine.Config{
		Array:       raid.New(raid.RAID5, disks, 16),
		MemoryBytes: 256 * 1024,
		Verify:      true,
		NVRAMBytes:  1 << 22,
	}
}

// cluster is a tier over n standalone engines. An advertisement lands
// in the write that publishes it, so every test is deterministic.
type cluster struct {
	tier   *globalfp.Tier
	reg    *metrics.Registry // the tier's gauges
	engs   []*engine.Pipeline
	agents []*globalfp.Agent
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	tier, err := globalfp.NewTier(n, globalfp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{tier: tier, reg: metrics.NewRegistry()}
	tier.Instrument(c.reg)
	for i := 0; i < n; i++ {
		e := core.NewSelectDedupe(testConfig(1 << 14))
		if _, ok := bgdedup.Attach(e, bgdedup.Params{}); !ok {
			t.Fatal("bgdedup.Attach refused Select-Dedupe")
		}
		c.engs = append(c.engs, e)
		c.agents = append(c.agents, globalfp.New(e.Base(), tier, i))
	}
	return c
}

// tierGauges reads the tier's gauges the way the server exports them.
func (c *cluster) tierGauges() map[string]int64 { return c.reg.Snapshot().Gauges }

// settle exchanges protocol traffic round-robin until nothing moves —
// the same loop the server runs at Close.
func (c *cluster) settle(now sim.Time) {
	for round := 0; round < 64; round++ {
		moved := 0
		for _, a := range c.agents {
			moved += a.DrainAll(now)
		}
		if moved == 0 && c.tier.Backlog() == 0 {
			return
		}
	}
}

func (c *cluster) check(t *testing.T) {
	t.Helper()
	for i, e := range c.engs {
		if err := e.Base().CheckConsistency(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

func seq(from, n int) []chunk.ContentID {
	ids := make([]chunk.ContentID, n)
	for i := range ids {
		ids[i] = chunk.ContentID(from + i)
	}
	return ids
}

func write(t *testing.T, e engine.Engine, at sim.Time, lba uint64, ids []chunk.ContentID) {
	t.Helper()
	if _, err := e.Write(&trace.Request{Time: at, Op: trace.Write, LBA: lba, N: len(ids), Content: ids}); err != nil {
		t.Fatalf("write lba %d: %v", lba, err)
	}
}

func TestNewTierValidatesShardCount(t *testing.T) {
	if _, err := globalfp.NewTier(1, globalfp.Params{}); err == nil {
		t.Fatal("1 shard accepted")
	}
	if _, err := globalfp.NewTier(65, globalfp.Params{}); err == nil {
		t.Fatal("65 shards accepted")
	}
	if _, err := globalfp.NewTier(64, globalfp.Params{}); err != nil {
		t.Fatal(err)
	}
}

// TestHintEnablesCrossShardInlineDedupe is the tier's reason to exist:
// after shard 0 writes content and installs its hints, shard 1's
// first write of the same content deduplicates inline against shard
// 0's copy — recovering exactly the "first write per shard" loss that
// LBA sharding introduces.
func TestHintEnablesCrossShardInlineDedupe(t *testing.T) {
	c := newCluster(t, 2)
	ids := seq(1, 8)

	write(t, c.engs[0], 0, 0, ids) // canonical copies + fresh ads
	c.settle(1000)                 // pin request → pin → hint installed

	st1before := *c.engs[1].Stats()
	write(t, c.engs[1], 2000, 0, ids)
	c.settle(3000)

	st1 := c.engs[1].Stats()
	if st1.RemoteDeduped != 8 {
		t.Fatalf("shard 1 remote-deduped %d chunks, want 8", st1.RemoteDeduped)
	}
	if st1.WritesRemoved != st1before.WritesRemoved+1 {
		t.Fatalf("shard 1 writes removed %d → %d, want the whole request removed", st1before.WritesRemoved, st1.WritesRemoved)
	}
	if used := c.engs[1].UsedBlocks(); used != 0 {
		t.Fatalf("shard 1 uses %d blocks, want 0 (all chunks remote)", used)
	}

	// Pin accounting on the owner: one hinted pin + one ref pin from
	// shard 1 on each of the 8 canonicals.
	b0 := c.engs[0].Base()
	for pba := alloc.PBA(0); pba < 8; pba++ {
		if pins := b0.Map.PinCount(pba); pins != 2 {
			t.Fatalf("canonical %d holds %d pins, want 2 (hinted + shard-1 ref)", pba, pins)
		}
	}

	// Logical view through the remote mapping resolver.
	b1 := c.engs[1].Base()
	for i, id := range ids {
		enc, ok := b1.ResolveRemote(uint64(i))
		if !ok {
			t.Fatalf("lba %d: no remote mapping", i)
		}
		shard, canon := alloc.RemoteParts(enc)
		if shard != 0 {
			t.Fatalf("lba %d resolved to shard %d", i, shard)
		}
		got, live := b0.Store.Read(canon)
		if !live || got != id {
			t.Fatalf("lba %d: canonical content %d,%v want %d", i, got, live, id)
		}
	}
	c.check(t)
}

// TestFoldMergesPreexistingDuplicates: both shards already hold copies
// (written before any hint could land). The second advertisement is a
// detected cross-shard duplicate; the fold rewires shard 1's referrers
// onto shard 0's canonical and reclaims shard 1's copies.
func TestFoldMergesPreexistingDuplicates(t *testing.T) {
	c := newCluster(t, 2)
	ids := seq(100, 8)

	write(t, c.engs[0], 0, 0, ids)
	write(t, c.engs[1], 0, 0, ids) // duplicate copies, no hint yet
	if used := c.engs[1].UsedBlocks(); used != 8 {
		t.Fatalf("shard 1 uses %d blocks before settle, want 8", used)
	}

	c.settle(10000)

	if used := c.engs[1].UsedBlocks(); used != 0 {
		t.Fatalf("shard 1 uses %d blocks after fold, want 0", used)
	}
	st := c.engs[1].Metrics().Snapshot().Gauges
	if st["globalfp_remaps_applied"] == 0 {
		t.Fatalf("no remaps applied: %+v", st)
	}
	if tc := c.tierGauges(); tc["globalfp_dups_detected"] == 0 {
		t.Fatalf("tier detected no cross-shard duplicates: %+v", tc)
	}
	// Shard 1's logical view is intact through the remote references.
	b0, b1 := c.engs[0].Base(), c.engs[1].Base()
	for i, id := range ids {
		enc, ok := b1.ResolveRemote(uint64(i))
		if !ok {
			t.Fatalf("lba %d: not folded to a remote mapping", i)
		}
		_, canon := alloc.RemoteParts(enc)
		if got, live := b0.Store.Read(canon); !live || got != id {
			t.Fatalf("lba %d: canonical content %d,%v want %d", i, got, live, id)
		}
	}
	c.check(t)
}

// TestRecallFreesAbandonedCanonical: when every reference — local and
// remote — to a hinted canonical disappears, the parole/recall round
// must revoke the hints and actually free the block. This is the
// capacity-leak guard: pins must never outlive their reason.
func TestRecallFreesAbandonedCanonical(t *testing.T) {
	c := newCluster(t, 2)
	ids := seq(500, 8)

	write(t, c.engs[0], 0, 0, ids)
	c.settle(1000)
	write(t, c.engs[1], 2000, 0, ids) // remote refs via hints
	c.settle(3000)

	// Overwrite both shards' LBAs with fresh content: shard 1's RefDown
	// drops the ref pins, shard 0's overwrite paroles the canonicals,
	// and the recall round revokes and frees them.
	write(t, c.engs[1], 4000, 0, seq(900, 8))
	c.settle(5000)
	write(t, c.engs[0], 6000, 0, seq(700, 8))
	c.settle(7000)

	b0 := c.engs[0].Base()
	for pba := alloc.PBA(0); pba < 8; pba++ {
		if pins := b0.Map.PinCount(pba); pins != 0 {
			t.Fatalf("abandoned canonical %d still holds %d pins", pba, pins)
		}
	}
	st := c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_recalls_sent"] == 0 || st["globalfp_recalls_done"] != st["globalfp_recalls_sent"] {
		t.Fatalf("recalls sent %d done %d, want all complete", st["globalfp_recalls_sent"], st["globalfp_recalls_done"])
	}
	// 8 old canonicals on shard 0 freed, 8 fresh blocks live on each.
	if used := c.engs[0].UsedBlocks(); used != 8 {
		t.Fatalf("shard 0 uses %d blocks, want 8 (old canonicals freed)", used)
	}
	if n := c.tierGauges()["globalfp_table_entries"]; n != 16 {
		// 8 new entries per shard's fresh content (distinct), old 8 gone
		t.Logf("tier entries = %d", n)
	}
	c.check(t)
}

// TestStaleAdvertisementIsHarmless: an advertisement for a block that
// was overwritten before the tier processed it must be rejected at the
// owner (pin refused, table fixed) and never produce a grant.
func TestStaleAdvertisementIsHarmless(t *testing.T) {
	c := newCluster(t, 2)

	b0 := c.engs[0].Base()
	// Advertise a fingerprint that names a block whose content is
	// something else entirely (fingerprint of content 999 against the
	// block holding content 1).
	write(t, c.engs[0], 0, 0, seq(1, 1))
	c.tier.Advertise(0, chunk.ContentID(999).Fingerprint(), 0, true)
	c.settle(1000)

	st := c.engs[0].Metrics().Snapshot().Gauges
	if st["globalfp_pin_rejects"] == 0 {
		t.Fatalf("stale advertisement was not rejected: %+v", st)
	}
	if pins := b0.Map.PinCount(0); pins != 1 {
		// 1 pin is legitimate: block 0's true fingerprint was also
		// advertised by the write itself and hinted.
		t.Fatalf("block 0 holds %d pins, want 1", pins)
	}
	if tc := c.tierGauges(); tc["globalfp_table_fixes"] == 0 {
		t.Fatalf("tier never dropped the stale entry: %+v", tc)
	}
	c.check(t)
}

// TestRecoveryRebuildsPinsFromShardIndexes: after a crash the tier is
// rebuilt from the shard maps alone — remote mappings recover through
// the journaled Map path, canonicals are re-pinned as ref pins, and
// content stays reachable.
func TestRecoveryRebuildsPinsFromShardIndexes(t *testing.T) {
	c := newCluster(t, 2)
	ids := seq(300, 8)

	write(t, c.engs[0], 0, 0, ids)
	c.settle(1000)
	write(t, c.engs[1], 2000, 0, ids)
	c.settle(3000)

	// Whole-node crash: every shard loads its journal, remote mappings
	// found in the recovered maps yield pin lists, recovery finishes
	// with canonicals protected, tier state resets.
	b := []*engine.Base{c.engs[0].Base(), c.engs[1].Base()}
	for i := range b {
		if _, err := b[i].RecoverLoad(); err != nil {
			t.Fatalf("shard %d load: %v", i, err)
		}
	}
	pinned := make([][]alloc.PBA, 2)
	for i := range b {
		seen := map[alloc.PBA]bool{}
		b[i].Map.Each(func(_ uint64, pba alloc.PBA, _ bool) bool {
			if alloc.IsRemote(pba) && !seen[pba] {
				seen[pba] = true
				owner, canon := alloc.RemoteParts(pba)
				pinned[owner] = append(pinned[owner], canon)
			}
			return true
		})
	}
	for i := range b {
		b[i].RecoverFinish(pinned[i])
	}
	c.tier.Reset()

	for pba := alloc.PBA(0); pba < 8; pba++ {
		if pins := b[0].Map.PinCount(pba); pins != 1 {
			t.Fatalf("recovered canonical %d holds %d pins, want 1 ref pin (hinted pins are volatile)", pba, pins)
		}
	}
	for i, id := range ids {
		enc, ok := b[1].ResolveRemote(uint64(i))
		if !ok {
			t.Fatalf("lba %d: remote mapping lost in recovery", i)
		}
		_, canon := alloc.RemoteParts(enc)
		if got, live := b[0].Store.Read(canon); !live || got != id {
			t.Fatalf("lba %d: canonical content %d,%v want %d", i, got, live, id)
		}
	}
	c.check(t)
}

// TestRemoteReadResolvesThroughMapping: a read of a folded LBA pays the
// modeled remote fetch and returns success, and repeat reads hit the
// local read cache.
func TestRemoteReadResolvesThroughMapping(t *testing.T) {
	c := newCluster(t, 2)
	ids := seq(800, 8)
	write(t, c.engs[0], 0, 0, ids)
	c.settle(1000)
	write(t, c.engs[1], 2000, 0, ids)
	c.settle(3000)

	rt, err := c.engs[1].Read(&trace.Request{Time: 4000, Op: trace.Read, LBA: 0, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rt < engine.RemoteReadUS {
		t.Fatalf("remote read rt %dus, want >= %dus (modeled remote fetch)", rt, engine.RemoteReadUS)
	}
	st := c.engs[1].Stats()
	if st.RemoteReads == 0 {
		t.Fatalf("no remote reads counted: %+v", st)
	}
	before := st.CacheHits
	if _, err := c.engs[1].Read(&trace.Request{Time: 5000000, Op: trace.Read, LBA: 0, N: 8}); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits <= before {
		t.Fatalf("repeat remote read missed the read cache (hits %d → %d)", before, st.CacheHits)
	}
}

// TestPeerDropsCachedReadWithLastReference: a peer that drops its last
// reference to a remote block drops its cached read of it too — its ref
// pin goes with the reference, so the owner may free and reuse the
// block — while a remote block the peer still maps stays cached.
func TestPeerDropsCachedReadWithLastReference(t *testing.T) {
	c := newCluster(t, 2)
	ids := seq(800, 8)
	write(t, c.engs[0], 0, 0, ids)
	c.settle(1000)
	write(t, c.engs[1], 2000, 0, ids)
	c.settle(3000)
	if _, err := c.engs[1].Read(&trace.Request{Time: 4000, Op: trace.Read, LBA: 0, N: 8}); err != nil {
		t.Fatal(err)
	}
	b1 := c.engs[1].Base()
	canons := make([]alloc.PBA, 8)
	for i := range canons {
		enc, ok := b1.ResolveRemote(uint64(i))
		if !ok {
			t.Fatalf("lba %d is not a remote mapping", i)
		}
		canons[i] = enc
	}

	write(t, c.engs[1], 5000, 0, seq(900, 4)) // LBAs 0-3 drop their references
	for i, enc := range canons {
		if cached, want := b1.IC.ReadHit(enc), i >= 4; cached != want {
			t.Fatalf("lba %d's canonical %#x cached %v after the overwrite, want %v", i, enc, cached, want)
		}
	}
	c.settle(6000)
	c.check(t)
}

// TestHintsNeverEnterICache: the iCache holds the shard's own
// fingerprints and nothing a peer wrote. Two shards with adaptive caches
// run the same disjoint-content workload with and without the tier — a
// working set that fits shard 0's hot index beside a peer streaming four
// times as many first sightings at it, a read scan that shrinks the
// index share, a write scan that grows it back. With the tier every one
// of those first sightings is hinted to the other shard, none is ever
// used, and the Swap Module must not notice: same repartitions, same
// final split. Then the hints are used, and the index side, ghost
// included, still binds local blocks only.
func TestHintsNeverEnterICache(t *testing.T) {
	const reqGap = 10 * sim.Millisecond
	run := func(tier bool) (*cluster, [2]int64, [2]int64) {
		c := &cluster{reg: metrics.NewRegistry()}
		if tier {
			tr, err := globalfp.NewTier(2, globalfp.Params{})
			if err != nil {
				t.Fatal(err)
			}
			c.tier = tr
			tr.Instrument(c.reg)
		}
		for i := 0; i < 2; i++ {
			e := core.NewPOD(testConfig(1 << 14))
			if _, ok := bgdedup.Attach(e, bgdedup.Params{}); !ok {
				t.Fatal("bgdedup.Attach refused POD")
			}
			c.engs = append(c.engs, e)
			if tier {
				c.agents = append(c.agents, globalfp.New(e.Base(), c.tier, i))
			}
		}
		now := sim.Time(0)
		step := func() {
			now = now.Add(reqGap)
			if tier {
				c.settle(now)
			}
		}
		// shard 0 cycles over 1200 contents (its hot index holds 2048);
		// shard 1 streams 4800 contents it never repeats
		for r := 0; r < 600; r++ {
			write(t, c.engs[0], now, uint64(r%150*8), seq(100000+r%150*8, 8))
			write(t, c.engs[1], now, uint64(r*8), seq(200000+r*8, 8))
			step()
		}
		// a cyclic read scan one and a half times the read cache
		for r := 0; r < 400; r++ {
			if _, err := c.engs[0].Read(&trace.Request{Time: now, Op: trace.Read, LBA: uint64(r % 6 * 8), N: 8}); err != nil {
				t.Fatal(err)
			}
			step()
		}
		// a cyclic write scan larger than the shrunken hot index
		for r := 0; r < 900; r++ {
			write(t, c.engs[0], now, uint64(2000+r%225*8), seq(300000+r%225*8, 8))
			step()
		}
		var reps, frac [2]int64
		for i, e := range c.engs {
			g := e.Metrics().Snapshot().Gauges
			reps[i], frac[i] = g["icache_repartitions"], g["icache_index_frac_permille"]
		}
		return c, reps, frac
	}

	_, offReps, offFrac := run(false)
	c, onReps, onFrac := run(true)
	if offReps[0] < 4 {
		t.Fatalf("shard 0 repartitioned %d times without the tier; the workload should move the split both ways", offReps[0])
	}
	if onReps != offReps || onFrac != offFrac {
		t.Fatalf("repartitions %v (index share %v) with the tier, %v (%v) without", onReps, onFrac, offReps, offFrac)
	}
	if n := c.tierGauges()["globalfp_hints_installed"]; n < 6000 {
		t.Fatalf("%d hints installed, want one per content written; the comparison proves nothing", n)
	}

	// use the hints: shard 1 writes shard 0's working set
	for r := 0; r < 150; r++ {
		write(t, c.engs[1], sim.Time(30*sim.Second), uint64(100000+r*8), seq(100000+r*8, 8))
	}
	c.settle(sim.Time(31 * sim.Second))
	if c.engs[1].Stats().RemoteDeduped == 0 {
		t.Fatal("shard 1 deduplicated nothing against shard 0's hints")
	}
	for i, e := range c.engs {
		ic := e.Base().IC
		if err := ic.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		indexed := 0
		ic.CheckIndex(func(fp chunk.Fingerprint, pba alloc.PBA) error {
			indexed++
			if alloc.IsRemote(pba) {
				t.Errorf("shard %d: hot index binds %v to remote block %d", i, fp, pba)
			}
			return nil
		})
		if indexed == 0 {
			t.Fatalf("shard %d: the hot index is empty; the check proves nothing", i)
		}
	}
	c.check(t)
}
