package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/sim"
)

func w(t sim.Time, lba uint64, ids ...chunk.ContentID) Request {
	return Request{Time: t, Op: Write, LBA: lba, N: len(ids), Content: ids}
}

func r(t sim.Time, lba uint64, n int) Request {
	return Request{Time: t, Op: Read, LBA: lba, N: n}
}

func TestValidate(t *testing.T) {
	good := w(0, 0, 1, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Request{Op: Write, N: 2, Content: []chunk.ContentID{1}}
	if bad.Validate() == nil {
		t.Fatal("mismatched content length must fail")
	}
	zero := Request{Op: Read, N: 0}
	if zero.Validate() == nil {
		t.Fatal("zero-chunk request must fail")
	}
	badRead := Request{Op: Read, N: 1, Content: []chunk.ContentID{1}}
	if badRead.Validate() == nil {
		t.Fatal("read with content must fail")
	}
	last := r(0, LBALimit-1, 1) // the last address, one chunk: fits
	if err := last.Validate(); err != nil {
		t.Fatal(err)
	}
	past := w(0, LBALimit-1, 1, 2) // its second chunk is past the bound
	if err := past.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprint(LBALimit)) {
		t.Fatalf("a range past the logical-address bound: %v, want an error naming %d", err, LBALimit)
	}
	if huge := r(0, 0, LBALimit+1); huge.Validate() == nil {
		t.Fatal("a request longer than the address space must fail")
	}
	wrap := w(0, math.MaxUint64, 1, 2) // its second chunk would be lba 0
	if wrap.Validate() == nil {
		t.Fatal("a range wrapping past 2^64 must fail")
	}
	if unknown := (Request{Op: 2, N: 1}); unknown.Validate() == nil {
		t.Fatal("an op other than R and W must fail")
	}
	if _, err := ReadText(strings.NewReader("0 R 18446744073709551614 3\n"), "wrap"); err == nil {
		t.Fatal("ReadText accepted a read wrapping past 2^64")
	}
	if _, err := ReadText(strings.NewReader("0 W 268435455 2 1,2\n"), "past"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(LBALimit)) {
		t.Fatalf("ReadText on a write past the bound: %v, want an error naming %d", err, LBALimit)
	}
}

func TestReassembleMergesContiguous(t *testing.T) {
	in := []Request{
		w(100, 10, 1),
		w(101, 11, 2),
		w(102, 12, 3),
		w(5000, 50, 4), // gap in LBA: new request
	}
	out := Reassemble(in, 1000)
	if len(out) != 2 {
		t.Fatalf("reassembled %d requests, want 2", len(out))
	}
	if out[0].N != 3 || out[0].LBA != 10 || out[0].Time != 100 {
		t.Fatalf("merged request = %+v", out[0])
	}
	if !reflect.DeepEqual(out[0].Content, []chunk.ContentID{1, 2, 3}) {
		t.Fatalf("merged content = %v", out[0].Content)
	}
}

func TestReassembleRespectsWindow(t *testing.T) {
	in := []Request{
		w(0, 0, 1),
		w(5000, 1, 2), // contiguous LBA but too late
	}
	out := Reassemble(in, 1000)
	if len(out) != 2 {
		t.Fatalf("window ignored: %d requests", len(out))
	}
}

func TestReassembleDoesNotMixOps(t *testing.T) {
	in := []Request{
		w(0, 0, 1),
		r(1, 1, 1),
	}
	out := Reassemble(in, 1000)
	if len(out) != 2 {
		t.Fatal("merged a read into a write")
	}
}

func TestReassembleEmpty(t *testing.T) {
	if Reassemble(nil, 100) != nil {
		t.Fatal("empty input must produce nil")
	}
}

func TestReassembleDoesNotAliasInput(t *testing.T) {
	in := []Request{w(0, 0, 1), w(1, 1, 2)}
	out := Reassemble(in, 1000)
	out[0].Content[0] = 99
	if in[0].Content[0] != 1 {
		t.Fatal("reassembled request aliases input content")
	}
}

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Requests: []Request{
			w(0, 0, 1, 2, 3),
			r(100, 0, 3),
			w(200, 10, 4),
			w(300, 0, 1, 2, 3), // fully redundant, same LBA
		},
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got.Requests, tr.Requests)
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"abc W 0 1 5",
		"0 X 0 1 5",
		"0 W zz 1 5",
		"0 W 0 nope 5",
		"0 W 0 2 5",  // 1 id for 2 chunks
		"0 W 0 1",    // write without content
		"0 W 0 1 xx", // bad id
		"0 W 0",      // too few fields
	}
	for _, line := range cases {
		if _, err := ReadText(strings.NewReader(line), "bad"); err == nil {
			t.Errorf("line %q: expected error", line)
		}
	}
}

func TestTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0 W 0 1 7\n"
	tr, err := ReadText(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 1 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "sample" || !reflect.DeepEqual(got.Requests, tr.Requests) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX...."))); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	WriteBinary(&buf, tr)
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// Property: text and binary codecs both round-trip arbitrary valid
// traces.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%32) + 1
		tr := &Trace{Name: "prop"}
		var tm sim.Time
		for i := 0; i < n; i++ {
			tm = tm.Add(sim.Duration(rng.Intn(1000)))
			nc := rng.Intn(8) + 1
			if rng.Intn(2) == 0 {
				ids := make([]chunk.ContentID, nc)
				for j := range ids {
					ids[j] = chunk.ContentID(rng.Uint64())
				}
				tr.Requests = append(tr.Requests, w(tm, uint64(rng.Intn(10000)), ids...))
			} else {
				tr.Requests = append(tr.Requests, r(tm, uint64(rng.Intn(10000)), nc))
			}
		}
		var tb, bb bytes.Buffer
		if WriteText(&tb, tr) != nil || WriteBinary(&bb, tr) != nil {
			return false
		}
		fromText, err1 := ReadText(&tb, "prop")
		fromBin, err2 := ReadBinary(&bb)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(fromText.Requests, tr.Requests) &&
			reflect.DeepEqual(fromBin.Requests, tr.Requests)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeTable2Stats(t *testing.T) {
	a := Analyze(sampleTrace())
	if a.Chars.IOs != 4 {
		t.Fatalf("IOs = %d", a.Chars.IOs)
	}
	if a.Chars.WriteRatio != 75 {
		t.Fatalf("write ratio = %f", a.Chars.WriteRatio)
	}
	// sizes: 3+3+1+3 chunks over 4 requests = 2.5 chunks = 10 KB
	if a.Chars.AvgReqKB != 10 {
		t.Fatalf("avg req = %f KB", a.Chars.AvgReqKB)
	}
}

func TestAnalyzeRedundancy(t *testing.T) {
	a := Analyze(sampleTrace())
	// writes: [1,2,3] (all new), [4] (new), [1,2,3] again at same LBA
	if a.WriteChunks != 7 || a.RedundantChunks != 3 {
		t.Fatalf("chunks = %d/%d, want 7/3", a.WriteChunks, a.RedundantChunks)
	}
	// the redundant rewrite targets identical LBAs with identical content
	if a.SameLBAPct == 0 || a.DiffLBAPct != 0 {
		t.Fatalf("same/diff = %f/%f", a.SameLBAPct, a.DiffLBAPct)
	}
	if a.IORedundancyPct != a.SameLBAPct {
		t.Fatal("total must be the sum")
	}
}

func TestAnalyzeDiffLBARedundancy(t *testing.T) {
	tr := &Trace{Requests: []Request{
		w(0, 0, 7),
		w(1, 100, 7), // same content, different LBA: capacity redundancy
	}}
	a := Analyze(tr)
	if a.DiffLBAPct != 50 || a.SameLBAPct != 0 {
		t.Fatalf("same/diff = %f/%f, want 0/50", a.SameLBAPct, a.DiffLBAPct)
	}
}

func TestAnalyzeBuckets(t *testing.T) {
	tr := &Trace{Requests: []Request{
		w(0, 0, 1),           // 4 KB bucket
		w(1, 10, 2, 3),       // 8 KB bucket
		w(2, 20, 4, 5, 6, 7), // 16 KB bucket
		w(3, 0, 1),           // 4 KB, fully redundant
		w(4, 100, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
			17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33), // 132 KB: ≥128 bucket
	}}
	a := Analyze(tr)
	if a.Buckets[0].Total != 2 || a.Buckets[0].Redundant != 1 {
		t.Fatalf("4KB bucket = %+v", a.Buckets[0])
	}
	if a.Buckets[1].Total != 1 || a.Buckets[2].Total != 1 {
		t.Fatal("8/16KB buckets wrong")
	}
	last := a.Buckets[len(a.Buckets)-1]
	if last.Total != 1 {
		t.Fatalf("≥128KB bucket = %+v", last)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {8, 3}, {16, 4}, {32, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := bucketIndex(c.n); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	a := Analyze(&Trace{Name: "empty"})
	if a.Chars.IOs != 0 || a.IORedundancyPct != 0 {
		t.Fatal("empty trace should produce zeros")
	}
}
