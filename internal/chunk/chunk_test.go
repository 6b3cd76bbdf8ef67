package chunk

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPayloadDeterministic(t *testing.T) {
	a := Payload(42)
	b := Payload(42)
	if !bytes.Equal(a, b) {
		t.Fatal("equal content IDs must produce equal payloads")
	}
	if len(a) != Size {
		t.Fatalf("payload size = %d, want %d", len(a), Size)
	}
}

func TestPayloadDistinct(t *testing.T) {
	if bytes.Equal(Payload(1), Payload(2)) {
		t.Fatal("distinct content IDs produced equal payloads")
	}
}

func TestFillPayloadBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong buffer size")
		}
	}()
	FillPayload(1, make([]byte, 10))
}

func TestSyntheticConsistent(t *testing.T) {
	var fp SyntheticFingerprinter
	a := Chunk{Content: 99}
	b := Chunk{Content: 99}
	if fp.Fingerprint(&a) != fp.Fingerprint(&b) {
		t.Fatal("synthetic fingerprints must be deterministic")
	}
	c := Chunk{Content: 100}
	if fp.Fingerprint(&a) == fp.Fingerprint(&c) {
		t.Fatal("distinct IDs must fingerprint differently")
	}
}

// syntheticRef is the loop ContentID.Fingerprint was before it became
// three straight-line rounds, kept as the reference that defines every
// fingerprint.
func syntheticRef(id ContentID) Fingerprint {
	var f Fingerprint
	x := uint64(id)
	for i := 0; i < 20; i += 8 {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		n := 8
		if i+8 > 20 {
			n = 20 - i
		}
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], x)
		copy(f[i:i+n], tmp[:n])
		x += 0x9e3779b97f4a7c15
	}
	return f
}

// TestSyntheticMatchesReference: the fingerprint is bit-identical to
// the reference loop over a seeded million IDs and both ends of the
// range — directly, through SyntheticFingerprinter, SplitInto and a
// HashEngine.
func TestSyntheticMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ids := []ContentID{0, math.MaxUint64}
	for len(ids) < 1_000_002 {
		ids = append(ids, ContentID(r.Uint64()))
	}
	for _, id := range ids {
		c := Chunk{Content: id}
		if got, want := id.Fingerprint(), syntheticRef(id); got != want || (SyntheticFingerprinter{}).Fingerprint(&c) != want {
			t.Fatalf("id %#x: %x, want %x", uint64(id), got, want)
		}
	}
	split := SplitInto(nil, ids[:64], SyntheticFingerprinter{}, false)
	hashed := SplitInto(nil, ids[:64], nil, false)
	NewHashEngine(SyntheticFingerprinter{}, 1).FingerprintAll(hashed)
	for i := range split {
		if want := syntheticRef(ids[i]); split[i].FP != want || hashed[i].FP != want {
			t.Fatalf("id %#x: split %x, HashEngine %x, want %x", uint64(ids[i]), split[i].FP, hashed[i].FP, want)
		}
	}
}

// TestFingerprintEqualityProperty: the equivalence every dedup
// decision rests on — fingerprints are equal iff content IDs are.
func TestFingerprintEqualityProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		return (ContentID(a).Fingerprint() == ContentID(b).Fingerprint()) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestChunkSize: a chunk is its content ID and fingerprint, nothing
// more — every chunk scratch buffer and WriteOp is sized by it.
func TestChunkSize(t *testing.T) {
	if n := unsafe.Sizeof(Chunk{}); n != 32 {
		t.Fatalf("a chunk is %d B, want 32", n)
	}
}

func TestSplit(t *testing.T) {
	ids := []ContentID{1, 2, 1}
	chunks := SplitInto(nil, ids, SyntheticFingerprinter{}, false)
	if len(chunks) != 3 {
		t.Fatalf("len = %d", len(chunks))
	}
	if chunks[0].FP != chunks[2].FP {
		t.Error("same content must share fingerprint")
	}
	if chunks[0].FP == chunks[1].FP {
		t.Error("different content must not share fingerprint")
	}
	if bare := SplitInto(nil, ids, nil, false); bare[0].FP != (Fingerprint{}) {
		t.Error("a nil fingerprinter must leave fingerprints to a HashEngine")
	}
}

// otherFingerprinter is a Fingerprinter that is not the content ID's.
type otherFingerprinter struct{}

func (otherFingerprinter) Fingerprint(*Chunk) Fingerprint { return Fingerprint{1} }

// TestOnlyTheContentFingerprint: the Fingerprinter and materialize
// parameters accept only what WithDefaults fills — there is no other
// fingerprint, and no payload.
func TestOnlyTheContentFingerprint(t *testing.T) {
	for name, call := range map[string]func(){
		"SplitInto(other)":       func() { SplitInto(nil, []ContentID{1}, otherFingerprinter{}, false) },
		"SplitInto(materialize)": func() { SplitInto(nil, []ContentID{1}, SyntheticFingerprinter{}, true) },
		"NewHashEngine(other)":   func() { NewHashEngine(otherFingerprinter{}, 1) },
		"NewHashEngine(nil)":     func() { NewHashEngine(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestSplitIntoReusesAndReinitializes(t *testing.T) {
	ids := []ContentID{1, 2, 3, 4}
	buf := SplitInto(nil, ids, SyntheticFingerprinter{}, false)
	if len(buf) != 4 || buf[0].FP != ContentID(1).Fingerprint() {
		t.Fatal("SplitInto into nil must allocate and fill the chunks")
	}
	stale := buf[0].FP

	// reuse with fewer ids and no fp: nothing stale survives
	again := SplitInto(buf, []ContentID{9, 10}, nil, false)
	if &again[0] != &buf[0] {
		t.Fatal("SplitInto must reuse dst's backing array when capacity allows")
	}
	if len(again) != 2 {
		t.Fatalf("len = %d, want 2", len(again))
	}
	for i, c := range again {
		if c.FP == stale || c.FP != (Fingerprint{}) {
			t.Fatalf("chunk %d: stale fingerprint leaked through reuse", i)
		}
	}
	if again[0].Content != 9 || again[1].Content != 10 {
		t.Fatal("content IDs not rewritten")
	}

	// growth beyond capacity allocates fresh
	grown := SplitInto(again, make([]ContentID, 100), nil, false)
	if len(grown) != 100 {
		t.Fatalf("len = %d, want 100", len(grown))
	}
}

// TestHashEngineChargesPerChunk: the HashEngine agrees with
// fingerprinting at split time, and the modeled cost is the fixed
// per-chunk latency.
func TestHashEngineChargesPerChunk(t *testing.T) {
	ids := make([]ContentID, 64)
	for i := range ids {
		ids[i] = ContentID(i % 16)
	}
	want := SplitInto(nil, ids, SyntheticFingerprinter{}, false)
	got := SplitInto(nil, ids, nil, false)
	if cost := NewHashEngine(SyntheticFingerprinter{}, 1).FingerprintAll(got); cost != int64(len(ids))*DefaultChunkTimeUS {
		t.Errorf("cost = %d, want %d", cost, int64(len(ids))*DefaultChunkTimeUS)
	}
	for i := range want {
		if got[i].FP != want[i].FP {
			t.Fatalf("chunk %d: engine and split-time fingerprints differ", i)
		}
	}
}

// TestNewHashEngineRefusesWorkers: hashing runs on the caller's
// goroutine, so any parallelism but 1 is refused.
func TestNewHashEngineRefusesWorkers(t *testing.T) {
	for _, w := range []int{0, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHashEngine(fp, %d) did not panic", w)
				}
			}()
			NewHashEngine(SyntheticFingerprinter{}, w)
		}()
	}
}

func TestHashEngineEmpty(t *testing.T) {
	e := NewHashEngine(SyntheticFingerprinter{}, 1)
	if cost := e.FingerprintAll(nil); cost != 0 {
		t.Errorf("empty batch cost = %d, want 0", cost)
	}
}

// BenchmarkSplit contrasts SplitInto with a fresh buffer per call and
// with a reused scratch buffer — the hot replay path uses the latter and
// must stay at zero allocations per request.
func BenchmarkSplit(b *testing.B) {
	ids := make([]ContentID, 64)
	for i := range ids {
		ids[i] = ContentID(i)
	}
	b.Run("Alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SplitInto(nil, ids, SyntheticFingerprinter{}, false)
		}
	})
	b.Run("Into", func(b *testing.B) {
		var scratch []Chunk
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = SplitInto(scratch, ids, SyntheticFingerprinter{}, false)
		}
	})
}

func BenchmarkFingerprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ContentID(i).Fingerprint()
	}
}
