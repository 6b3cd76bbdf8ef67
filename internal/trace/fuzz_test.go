package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
)

// FuzzReadText: the text parser must reject or accept arbitrary input
// without panicking, and every accepted trace must be internally valid.
func FuzzReadText(f *testing.F) {
	f.Add("0 W 0 2 5,6\n100 R 0 2\n")
	f.Add("# comment\n\n1 W 9 1 42\n")
	f.Add("garbage")
	f.Add("0 W 0 1")
	f.Add("0 W 18446744073709551615 1 18446744073709551615\n")
	f.Add("0 W 18446744073709551615 2 1,2\n") // wraps: its second chunk would be lba 0
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadText(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		for i := range tr.Requests {
			if verr := tr.Requests[i].Validate(); verr != nil {
				t.Fatalf("accepted invalid request %d: %v", i, verr)
			}
			if q := &tr.Requests[i]; q.LBA+uint64(q.N-1) < q.LBA {
				t.Fatalf("accepted request %d wraps past 2^64: %d chunks at lba %d", i, q.N, q.LBA)
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
// over-allocating.
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
	var op2 bytes.Buffer // neither R nor W
	if err := WriteBinary(&op2, &Trace{Name: "op2", Requests: []Request{{Time: 1, Op: 2, LBA: 3, N: 2}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(op2.Bytes())
	f.Fuzz(func(t *testing.T, input []byte) {
		tr, err := ReadBinary(bytes.NewReader(input))
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
			if q := &tr.Requests[i]; q.LBA+uint64(q.N-1) < q.LBA {
				t.Fatalf("accepted request %d wraps past 2^64: %d chunks at lba %d", i, q.N, q.LBA)
			}
		}
	})
}
