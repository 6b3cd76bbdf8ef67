package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
)

// FuzzReadText: the text parser must reject or accept arbitrary input
// without panicking or allocating more than the input warrants (the
// bound FuzzReadFIU holds), and every accepted trace must be internally
// valid.
func FuzzReadText(f *testing.F) {
	f.Add("0 W 0 2 5,6\n100 R 0 2\n")
	f.Add("# comment\n\n1 W 9 1 42\n")
	f.Add("garbage")
	f.Add("0 W 0 1")
	f.Add("0 W 18446744073709551615 1 18446744073709551615\n")
	f.Add("0 W 18446744073709551615 2 1,2\n") // wraps: its second chunk would be lba 0
	f.Fuzz(func(t *testing.T, input string) {
		var tr *Trace
		var err error
		checkAllocBound(t, len(input), func() { tr, err = ReadText(strings.NewReader(input), "fuzz") })
		if err != nil {
			return
		}
		for i := range tr.Requests {
			if verr := tr.Requests[i].Validate(); verr != nil {
				t.Fatalf("accepted invalid request %d: %v", i, verr)
			}
			if q := &tr.Requests[i]; q.LBA >= LBALimit || q.LBA+uint64(q.N) > LBALimit {
				t.Fatalf("accepted request %d past the logical-address bound: %d chunks at lba %d", i, q.N, q.LBA)
			}
		}
		// accepted traces must round-trip
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadText(&buf, "fuzz")
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Requests) != len(tr.Requests) {
			t.Fatalf("round trip lost requests: %d != %d", len(back.Requests), len(tr.Requests))
		}
	})
}

// FuzzReadBinary: the binary decoder must handle arbitrary bytes
// (truncation, corruption, hostile length fields) without panicking or
// allocating more than the input warrants (the bound FuzzReadFIU
// holds): a record claiming 2^20 chunks and holding none is one seed.
func FuzzReadBinary(f *testing.F) {
	good := &Trace{Name: "seed", Requests: []Request{
		{Time: 1, Op: Write, LBA: 2, N: 1, Content: []chunk.ContentID{7}},
		{Time: 5, Op: Read, LBA: 0, N: 3},
	}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, good); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PODT"))
	f.Add([]byte{})
	// a 16-byte header claiming 2^32 requests and holding none: read
	// without reserving room for them all
	f.Add([]byte("PODT\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"))
	data := append([]byte(nil), buf.Bytes()...)
	if len(data) > 10 {
		data[9] ^= 0xFF // corrupt the name length
	}
	f.Add(data)
	var wrap bytes.Buffer // its second chunk would be lba 0
	if err := WriteBinary(&wrap, &Trace{Name: "wrap", Requests: []Request{
		{Op: Write, LBA: math.MaxUint64, N: 2, Content: []chunk.ContentID{1, 2}},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(wrap.Bytes())
	var past bytes.Buffer // its second chunk is past the bound
	if err := WriteBinary(&past, &Trace{Name: "past", Requests: []Request{
		{Op: Write, LBA: LBALimit - 1, N: 2, Content: []chunk.ContentID{1, 2}},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(past.Bytes())
	var op2 bytes.Buffer // neither R nor W
	if err := WriteBinary(&op2, &Trace{Name: "op2", Requests: []Request{{Time: 1, Op: 2, LBA: 3, N: 2}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(op2.Bytes())
	f.Add(claimsMoreThanItHolds())
	f.Fuzz(func(t *testing.T, input []byte) {
		var tr *Trace
		var err error
		checkAllocBound(t, len(input), func() { tr, err = ReadBinary(bytes.NewReader(input)) })
		if err != nil {
			return
		}
		for i := range tr.Requests {
			if op := tr.Requests[i].Op; op != Read && op != Write {
				t.Fatalf("accepted request %d with op %d", i, op)
			}
			if verr := tr.Requests[i].Validate(); verr != nil {
				t.Fatalf("accepted invalid request %d: %v", i, verr)
			}
			if q := &tr.Requests[i]; q.LBA >= LBALimit || q.LBA+uint64(q.N) > LBALimit {
				t.Fatalf("accepted request %d past the logical-address bound: %d chunks at lba %d", i, q.N, q.LBA)
			}
		}
	})
}

// FuzzReadFIU: the FIU reader must reject or accept arbitrary bytes
// without panicking, every request it returns must be valid, and what it
// allocates must be warranted by the input: at most 256 bytes per input
// byte past a small constant, a 1 MiB record's content IDs (2 KiB) from
// a line of 17 bytes included.
func FuzzReadFIU(f *testing.F) {
	sample, err := os.ReadFile("../../testdata/fiu-sample.srt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample, uint8(0))
	f.Add([]byte(fiuSample), uint8(32)) // reads dropped
	f.Add([]byte("0 1 p 5 2 W 8 0 cafe\n"), uint8(1))
	f.Add([]byte("0 1 p 7 2048 W 8 0 d\n"), uint8(0))       // 1 MiB from mid-chunk: one chunk too wide
	f.Add([]byte("0 1 p 0 2147483648 W 8 0 d\n"), uint8(0)) // 2^28 chunks
	f.Add([]byte("0 1 p 2147483640 16 W 8 0 d\n"), uint8(0))
	f.Add([]byte("NaN 1 p 0 8 W 8 0 d\n-1e300 1 p 8 8 R 8 0 d\n"), uint8(8))
	f.Add([]byte("0 1 p 0 8 W 8 0 d\n"), uint8(5)) // an incompatible sector size
	f.Fuzz(func(t *testing.T, input []byte, opts uint8) {
		opt := FIUOptions{
			SectorBytes:     [...]int{0, 4096, 512, 1024, 8192, 3000, 2048, 16384}[opts&7],
			TimestampUnitUS: float64(opts>>3&3) * 500,
			DropReads:       opts&32 != 0,
		}
		var tr *Trace
		var err error
		checkAllocBound(t, len(input), func() { tr, err = ReadFIU(bytes.NewReader(input), "fuzz", opt) })
		if err != nil {
			return
		}
		for i := range tr.Requests {
			q := &tr.Requests[i]
			if verr := q.Validate(); verr != nil {
				t.Fatalf("accepted invalid request %d: %v", i, verr)
			}
			if q.N > maxRecordChunks || opt.DropReads && q.Op == Read {
				t.Fatalf("accepted request %d: %s of %d chunks", i, q.Op, q.N)
			}
		}
	})
}

// checkAllocBound fails t when read, a reader's decode of n input bytes,
// allocates more than the input warrants: 256 bytes per input byte past
// a 64 KiB constant.
func checkAllocBound(t *testing.T, n int, read func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*n); got > limit {
		t.Fatalf("%d input bytes made the reader allocate %d B, more than %d", n, got, limit)
	}
}

// claimsMoreThanItHolds is a binary trace named "t" of one write record
// that claims 2^20 chunks and ends before its first content id: 38
// bytes.
func claimsMoreThanItHolds() []byte {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Trace{Name: "t", Requests: []Request{{Op: Write, N: 1, Content: []chunk.ContentID{7}}}}); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	b = b[:len(b)-12] // the record's n and its one id
	return binary.LittleEndian.AppendUint32(b, 1<<20)
}

// TestReadersAllocateWhatTheInputWarrants runs the readers' fuzz bound
// on the inputs that broke it: a binary record claiming 2^20 chunks
// (8 MiB reserved up front) and a ten-byte text trace (a 1 MiB line
// buffer).
func TestReadersAllocateWhatTheInputWarrants(t *testing.T) {
	claim := claimsMoreThanItHolds()
	if len(claim) != 38 {
		t.Fatalf("the claiming record is %d bytes, want 38", len(claim))
	}
	checkAllocBound(t, len(claim), func() {
		if _, err := ReadBinary(bytes.NewReader(claim)); err == nil {
			t.Error("a record short of its content ids decoded")
		}
	})
	const text = "0 W 0 1 5\n"
	checkAllocBound(t, len(text), func() {
		if _, err := ReadText(strings.NewReader(text), "ten"); err != nil {
			t.Error(err)
		}
	})
}
