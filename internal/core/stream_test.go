package core

import (
	"testing"

	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// replayStats drives a request list through one engine and returns its
// stats — the comparison payload for the equivalence test below.
func replayStats(t *testing.T, e *engine.Pipeline, reqs []trace.Request) *engine.Stats {
	t.Helper()
	for i := range reqs {
		var err error
		if reqs[i].Op == trace.Write {
			_, err = e.Write(&reqs[i])
		} else {
			_, err = e.Read(&reqs[i])
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return e.Stats()
}

// TestStreamModeSingleStreamEquivalent pins the compatibility property
// behind the feature flag: with stream-aware apportionment enabled but
// only one (default) stream present, every request is serviced exactly
// as it is with the feature off — same dedup decisions, same response
// times, same physical occupancy.
func TestStreamModeSingleStreamEquivalent(t *testing.T) {
	reqs := randomWorkload(0x5eed, 3000)

	off := NewSelectDedupe(testConfig())
	cfgOn := testConfig()
	cfgOn.Streams = engine.StreamParams{Enabled: true}
	on := NewSelectDedupe(cfgOn)

	so := replayStats(t, off, reqs)
	sn := replayStats(t, on, reqs)

	if so.Writes != sn.Writes || so.Reads != sn.Reads {
		t.Fatalf("request counts diverge: off %d/%d, on %d/%d", so.Writes, so.Reads, sn.Writes, sn.Reads)
	}
	if so.WritesRemoved != sn.WritesRemoved || so.ChunksWritten != sn.ChunksWritten ||
		so.ChunksDeduped != sn.ChunksDeduped {
		t.Fatalf("dedup outcomes diverge: off removed=%d written=%d deduped=%d, on removed=%d written=%d deduped=%d",
			so.WritesRemoved, so.ChunksWritten, so.ChunksDeduped,
			sn.WritesRemoved, sn.ChunksWritten, sn.ChunksDeduped)
	}
	if so.Cat1 != sn.Cat1 || so.Cat2 != sn.Cat2 || so.Cat3 != sn.Cat3 {
		t.Fatalf("categories diverge: off %d/%d/%d, on %d/%d/%d",
			so.Cat1, so.Cat2, so.Cat3, sn.Cat1, sn.Cat2, sn.Cat3)
	}
	if so.CacheHits != sn.CacheHits || so.CacheMisses != sn.CacheMisses || so.ReadIOs != sn.ReadIOs {
		t.Fatal("read path diverges with the feature on")
	}
	if so.WriteRT.Sum() != sn.WriteRT.Sum() || so.ReadRT.Sum() != sn.ReadRT.Sum() {
		t.Fatalf("response times diverge: off %d/%d µs, on %d/%d µs",
			so.WriteRT.Sum(), so.ReadRT.Sum(), sn.WriteRT.Sum(), sn.ReadRT.Sum())
	}
	if off.UsedBlocks() != on.UsedBlocks() {
		t.Fatalf("occupancy diverges: off %d, on %d", off.UsedBlocks(), on.UsedBlocks())
	}
}

// TestStreamFloorNeverStarved is the fairness property behind the
// shared floor: replaying the adversarial multi-tenant mix (including
// the hopeless churning scan) under dynamic apportionment, every
// stream granted a share holds at least the floor fraction of the
// index partition, at every apportionment, for the whole replay.
func TestStreamFloorNeverStarved(t *testing.T) {
	tr, _, dims := workload.AdversarialScanMix(0.25)

	cfg := testConfig()
	cfg.MemoryBytes = dims.MemoryBytes
	cfg.Verify = false
	cfg.Streams = engine.StreamParams{Enabled: true}
	e := NewSelectDedupe(cfg)
	b := e.Base()

	const floor = 0.10 // locality's guaranteed share per active stream
	checks := 0
	for i := range tr.Requests {
		var err error
		if tr.Requests[i].Op == trace.Write {
			_, err = e.Write(&tr.Requests[i])
		} else {
			_, err = e.Read(&tr.Requests[i])
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i%256 != 0 {
			continue
		}
		total := b.IC.IndexCapTotal()
		for _, q := range b.IC.StreamQuotas() {
			if q.Share == 0 { // idle or unapportioned: no guarantee
				continue
			}
			checks++
			if min := int(floor * float64(total)); q.Cap < min-1 {
				t.Fatalf("request %d: stream %d holds %d entries, below floor %d (share %f of %d)",
					i, q.Stream, q.Cap, min, q.Share, total)
			}
		}
		if err := b.IC.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if checks == 0 {
		t.Fatal("floor property never exercised")
	}
}
