package chunk

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestSHA1MatchesMaterialized(t *testing.T) {
	var fp SHA1Fingerprinter
	withData := Chunk{Content: 7, Data: Payload(7)}
	withoutData := Chunk{Content: 7}
	if fp.Fingerprint(&withData) != fp.Fingerprint(&withoutData) {
		t.Fatal("SHA1 fingerprint must not depend on payload materialization")
	}
}

func TestSHA1DistinctContent(t *testing.T) {
	var fp SHA1Fingerprinter
	a := Chunk{Content: 1}
	b := Chunk{Content: 2}
	if fp.Fingerprint(&a) == fp.Fingerprint(&b) {
		t.Fatal("distinct contents must hash differently")
	}
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

// syntheticRef is the loop SyntheticFingerprinter.Fingerprint was
// before it became three straight-line rounds, kept as the reference
// that defines every synthetic fingerprint.
func syntheticRef(c *Chunk) Fingerprint {
	var f Fingerprint
	x := uint64(c.Content)
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

// TestSyntheticMatchesReference: the synthetic fingerprint is
// bit-identical to the reference loop over a seeded million IDs and
// both ends of the range, directly and through a serial HashEngine.
func TestSyntheticMatchesReference(t *testing.T) {
	var fp SyntheticFingerprinter
	r := rand.New(rand.NewSource(1))
	ids := []ContentID{0, math.MaxUint64}
	for len(ids) < 1_000_002 {
		ids = append(ids, ContentID(r.Uint64()))
	}
	for _, id := range ids {
		c := Chunk{Content: id}
		if got, want := fp.Fingerprint(&c), syntheticRef(&c); got != want {
			t.Fatalf("id %#x: %x, want %x", uint64(id), got, want)
		}
	}
	chunks := SplitInto(nil, ids[:64], nil, false)
	NewHashEngine(fp, 1).FingerprintAll(chunks)
	for i := range chunks {
		if want := syntheticRef(&chunks[i]); chunks[i].FP != want {
			t.Fatalf("HashEngine, id %#x: %x, want %x", uint64(ids[i]), chunks[i].FP, want)
		}
	}
}

// The dedup-decision equivalence that justifies using synthetic
// fingerprints for large replays: fp(a)==fp(b) iff content(a)==content(b)
// in BOTH modes.
func TestModeEquivalenceProperty(t *testing.T) {
	var sha SHA1Fingerprinter
	var syn SyntheticFingerprinter
	f := func(a, b uint32) bool {
		ca, cb := Chunk{Content: ContentID(a)}, Chunk{Content: ContentID(b)}
		shaEq := sha.Fingerprint(&ca) == sha.Fingerprint(&cb)
		synEq := syn.Fingerprint(&ca) == syn.Fingerprint(&cb)
		contentEq := a == b
		return shaEq == contentEq && synEq == contentEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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
	if chunks[0].Data != nil {
		t.Error("non-materialized split must not allocate payloads")
	}
	mat := SplitInto(nil, ids, SHA1Fingerprinter{}, true)
	if mat[0].Data == nil || len(mat[0].Data) != Size {
		t.Error("materialized split must carry payloads")
	}
}

func TestSplitIntoReusesAndReinitializes(t *testing.T) {
	ids := []ContentID{1, 2, 3, 4}
	buf := SplitInto(nil, ids, SHA1Fingerprinter{}, true)
	if len(buf) != 4 || buf[0].Data == nil {
		t.Fatal("SplitInto into nil must allocate and fill the chunks")
	}
	stale := buf[0].FP

	// reuse with fewer ids, no fp, no payloads: nothing stale survives
	again := SplitInto(buf, []ContentID{9, 10}, nil, false)
	if &again[0] != &buf[0] {
		t.Fatal("SplitInto must reuse dst's backing array when capacity allows")
	}
	if len(again) != 2 {
		t.Fatalf("len = %d, want 2", len(again))
	}
	for i, c := range again {
		if c.Data != nil {
			t.Fatalf("chunk %d: stale payload leaked through reuse", i)
		}
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

func TestHashEngineSerialAndParallelAgree(t *testing.T) {
	ids := make([]ContentID, 64)
	for i := range ids {
		ids[i] = ContentID(i % 16)
	}
	serial := SplitInto(nil, ids, SHA1Fingerprinter{}, true)
	par := SplitInto(nil, ids, SyntheticFingerprinter{}, true) // placeholder fps, recomputed below

	e1 := NewHashEngine(SHA1Fingerprinter{}, 1)
	e8 := NewHashEngine(SHA1Fingerprinter{}, 8)
	cost1 := e1.FingerprintAll(serial)
	cost8 := e8.FingerprintAll(par)
	if cost1 != cost8 {
		t.Errorf("modeled cost must be independent of parallelism: %d vs %d", cost1, cost8)
	}
	if cost1 != int64(len(ids))*DefaultChunkTimeUS {
		t.Errorf("cost = %d, want %d", cost1, int64(len(ids))*DefaultChunkTimeUS)
	}
	for i := range serial {
		if serial[i].FP != par[i].FP {
			t.Fatalf("chunk %d: serial and parallel fingerprints differ", i)
		}
	}
}

func TestHashEngineEmpty(t *testing.T) {
	e := NewHashEngine(SHA1Fingerprinter{}, 4)
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
			_ = SplitInto(nil, ids, nil, false)
		}
	})
	b.Run("Into", func(b *testing.B) {
		var scratch []Chunk
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = SplitInto(scratch, ids, nil, false)
		}
	})
}

func BenchmarkSHA1Fingerprint(b *testing.B) {
	var fp SHA1Fingerprinter
	c := Chunk{Content: 1, Data: Payload(1)}
	b.SetBytes(Size)
	for i := 0; i < b.N; i++ {
		fp.Fingerprint(&c)
	}
}

func BenchmarkSyntheticFingerprint(b *testing.B) {
	var fp SyntheticFingerprinter
	c := Chunk{Content: 1}
	for i := 0; i < b.N; i++ {
		fp.Fingerprint(&c)
	}
}

func BenchmarkHashEngineParallel(b *testing.B) {
	ids := make([]ContentID, 1024)
	for i := range ids {
		ids[i] = ContentID(i)
	}
	chunks := SplitInto(nil, ids, SyntheticFingerprinter{}, true)
	e := NewHashEngine(SHA1Fingerprinter{}, 0)
	b.SetBytes(int64(len(ids)) * Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FingerprintAll(chunks)
	}
}
