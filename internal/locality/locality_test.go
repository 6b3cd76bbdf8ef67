package locality

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/pod-dedup/pod/internal/cache"
	"github.com/pod-dedup/pod/internal/chunk"
)

// sfp builds a fingerprint whose sampling key is k — multiples of 4
// pass the default 1/4 sampling mask.
func sfp(k uint64) chunk.Fingerprint {
	var f chunk.Fingerprint
	binary.LittleEndian.PutUint64(f[:8], k)
	return f
}

func est() *Estimator {
	return New(Params{WindowEntries: 64})
}

func TestDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.SampleShift != 2 || p.WindowEntries != 4096 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestSampling(t *testing.T) {
	e := est()
	e.Record(1, sfp(4)) // sampled
	e.Record(1, sfp(5)) // not sampled (5 & 3 != 0)
	if len(e.order) != 1 || e.streams[1].sketch.Len() != 1 {
		t.Fatalf("%d streams, stream 1 sketch holds %d keys; want 1 and 1", len(e.order), e.streams[1].sketch.Len())
	}
}

// TestRecordKeepsTheSketch pins Record's single probe per sample
// against the Get-then-Put it replaced: same reuse hits, same sketch
// contents in the same recency order — read back as the order fresh
// keys push them out.
func TestRecordKeepsTheSketch(t *testing.T) {
	e := New(Params{WindowEntries: 16})
	ref := cache.NewLRU[uint64, struct{}](16)
	var hits int64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(40)) * 4
		e.Record(1, sfp(k))
		if _, ok := ref.Get(k); ok {
			hits++
		}
		ref.Put(k, struct{}{})
	}
	s := e.streams[1]
	if s.hits != hits || s.sketch.Len() != ref.Len() {
		t.Fatalf("hits %d, %d keys; want %d, %d", s.hits, s.sketch.Len(), hits, ref.Len())
	}
	for k := uint64(1000); k < 1016; k++ {
		got, _ := s.sketch.Put(k, struct{}{})
		want, _ := ref.Put(k, struct{}{})
		if got.Key != want.Key {
			t.Fatalf("fresh key %d pushed out %d, want %d", k, got.Key, want.Key)
		}
	}
}

func TestReuseBoostsShare(t *testing.T) {
	e := est()
	// stream 1 re-references a tight working set; stream 2 never reuses
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 32; k++ {
			e.Record(1, sfp(k*4))
		}
	}
	for k := uint64(0); k < 96; k++ {
		e.Record(2, sfp(10000+k*4))
	}
	shares := e.Apportion()
	if shares == nil {
		t.Fatal("no shares for two active streams")
	}
	if shares[1] <= shares[2] {
		t.Fatalf("high-locality stream share %f not above cold stream's %f", shares[1], shares[2])
	}
	if shares[2] < 0.10-1e-9 {
		t.Fatalf("cold stream %f below the floor", shares[2])
	}
	if sum := shares[1] + shares[2]; sum > 1+1e-9 {
		t.Fatalf("shares sum to %f", sum)
	}
}

func TestEqualSplitWithoutEvidence(t *testing.T) {
	e := est()
	e.Record(1, sfp(4))
	e.Record(2, sfp(8))
	shares := e.Apportion()
	if shares[1] != shares[2] {
		t.Fatalf("no-evidence split %f / %f, want equal", shares[1], shares[2])
	}
}

func TestIdleStreamDropped(t *testing.T) {
	e := est()
	e.Record(1, sfp(4))
	e.Record(2, sfp(8))
	shares := e.Apportion()
	// stream 1 keeps writing; stream 2 goes silent
	for i := 0; i < idleIntervals; i++ {
		if _, ok := shares[2]; !ok {
			t.Fatalf("stream dropped after %d idle intervals, want %d", i, idleIntervals)
		}
		e.Record(1, sfp(4))
		shares = e.Apportion()
	}
	if _, ok := shares[2]; ok {
		t.Fatalf("idle stream still apportioned: %v", shares)
	}
	if shares[1] != 1.0 {
		t.Fatalf("sole active stream share %f, want 1", shares[1])
	}
	// an idle stream rejoins on its next write, floored at minimum
	e.Record(2, sfp(8))
	shares = e.Apportion()
	if s, ok := shares[2]; !ok || s < 0.10-1e-9 {
		t.Fatalf("returning stream share %v, %v", s, ok)
	}
}

func TestAllIdleKeepsSplit(t *testing.T) {
	e := est()
	e.Record(1, sfp(4))
	for i := 0; i < idleIntervals; i++ {
		e.Apportion()
	}
	if shares := e.Apportion(); shares != nil {
		t.Fatalf("all-idle apportionment = %v, want nil (keep current split)", shares)
	}
}

func TestFloorClampsWithManyStreams(t *testing.T) {
	e := New(Params{WindowEntries: 16})
	const n = 20 // 20 streams: a 10% floor each would oversubscribe
	for s := uint32(1); s <= n; s++ {
		e.Record(s, sfp(uint64(s)*4))
	}
	shares := e.Apportion()
	if len(shares) != n {
		t.Fatalf("%d streams apportioned, want %d", len(shares), n)
	}
	sum := 0.0
	for _, s := range shares {
		if s < 1.0/n-1e-9 {
			t.Fatalf("share %f below clamped floor %f", s, 1.0/n)
		}
		sum += s
	}
	if sum > 1+1e-9 {
		t.Fatalf("shares sum to %f", sum)
	}
}

func TestDecayForgetsOldLocality(t *testing.T) {
	e := est()
	// stream 1 reuses heavily, then turns cold (fresh content only);
	// stream 2 starts reusing
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 32; k++ {
			e.Record(1, sfp(k*4))
		}
	}
	e.Apportion()
	fresh := uint64(1 << 20)
	for iv := 0; iv < 6; iv++ {
		for k := uint64(0); k < 32; k++ {
			e.Record(1, sfp((fresh+k)*4))
			fresh += 32
			e.Record(2, sfp(5000+k*4))
		}
		e.Apportion()
	}
	shares := e.Apportion()
	if shares == nil {
		t.Fatal("both streams active, no shares")
	}
	if shares[2] <= shares[1] {
		t.Fatalf("stale locality outweighs current: stream1 %f, stream2 %f", shares[1], shares[2])
	}
}
