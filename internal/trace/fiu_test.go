package trace

import (
	"fmt"
	"strings"
	"testing"
)

const fiuSample = `1000 123 httpd 8 8 W 8 0 a1b2c3d4e5f60718
1500 123 httpd 16 8 W 8 0 a1b2c3d4e5f60718
2000 456 nfsd 8 8 R 8 0 0
`

func TestReadFIUBasic(t *testing.T) {
	tr, err := ReadFIU(strings.NewReader(fiuSample), "fiu", FIUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
	// 512-byte sectors: block 8, count 8 → bytes [4096, 8192) → 1 chunk at lba 1
	r0 := tr.Requests[0]
	if r0.Op != Write || r0.LBA != 1 || r0.N != 1 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Time != 0 {
		t.Fatalf("timestamps must normalize to zero, got %v", r0.Time)
	}
	// identical digests map to identical content
	if tr.Requests[0].Content[0] != tr.Requests[1].Content[0] {
		t.Fatal("same MD5 must produce same content ID")
	}
	// read at relative 1000µs... third record is at 2000-1000
	if tr.Requests[2].Op != Read || tr.Requests[2].Time != 1000 {
		t.Fatalf("r2 = %+v", tr.Requests[2])
	}
}

func TestReadFIUUnalignedSpan(t *testing.T) {
	// sectors [7, 17) = bytes [3584, 8704) spans chunks 0..2
	in := "0 1 p 7 10 W 8 0 deadbeef\n"
	tr, err := ReadFIU(strings.NewReader(in), "fiu", FIUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Requests[0]
	if r.LBA != 0 || r.N != 3 {
		t.Fatalf("unaligned span = %+v, want lba 0 n 3", r)
	}
	// derived per-chunk identities are distinct
	if r.Content[0] == r.Content[1] {
		t.Fatal("per-chunk identities must differ within a record")
	}
}

func TestReadFIU4KBlocks(t *testing.T) {
	in := "0 1 p 5 2 W 8 0 cafe\n"
	tr, err := ReadFIU(strings.NewReader(in), "fiu", FIUOptions{SectorBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Requests[0]
	if r.LBA != 5 || r.N != 2 {
		t.Fatalf("4K-addressed record = %+v", r)
	}
}

func TestReadFIUDropReads(t *testing.T) {
	tr, err := ReadFIU(strings.NewReader(fiuSample), "fiu", FIUOptions{DropReads: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		if tr.Requests[i].Op == Read {
			t.Fatal("read survived DropReads")
		}
	}
}

func TestReadFIURejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"x 1 p 0 1 W 8 0 d\n", // bad ts
		"0 1 p x 1 W 8 0 d\n", // bad block
		"0 1 p 0 0 W 8 0 d\n", // zero count
		"0 1 p 0 1 X 8 0 d\n", // bad op
		"0 1 p 0 1 W 8 0\n",   // missing digest
		"0 1\n",               // too few fields
	} {
		if _, err := ReadFIU(strings.NewReader(in), "bad", FIUOptions{}); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// TestReadFIURefusesPastTheBound: a record reaching past the
// logical-address bound is refused with an error naming it — the last
// 4 KB chunk below it is 8 sectors from 2^31, and a record whose length
// alone exceeds the address space never gets as far as its content.
func TestReadFIURefusesPastTheBound(t *testing.T) {
	if _, err := ReadFIU(strings.NewReader("0 1 p 2147483640 8 W 8 0 d\n"), "last", FIUOptions{}); err != nil {
		t.Fatalf("the last chunk below the bound: %v", err)
	}
	for _, in := range []string{
		"0 1 p 2147483640 16 W 8 0 d\n",          // its second chunk is past the bound
		"0 1 p 2147483648 8 R 8 0 0\n",           // starts past it
		"0 1 p 0 18446744073709551615 W 8 0 d\n", // longer than the address space
	} {
		_, err := ReadFIU(strings.NewReader(in), "past", FIUOptions{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(LBALimit)) {
			t.Errorf("input %q: %v, want an error naming the bound %d", in, err, LBALimit)
		}
	}
}

func TestReadFIUBadSectorSize(t *testing.T) {
	if _, err := ReadFIU(strings.NewReader(""), "x", FIUOptions{SectorBytes: 3000}); err == nil {
		t.Fatal("incompatible sector size must fail")
	}
}

func TestReadFIUThenReassemble(t *testing.T) {
	// two adjacent 4KB write records close in time: one request after
	// reassembly
	in := "0 1 p 8 8 W 8 0 aaaa\n100 1 p 16 8 W 8 0 bbbb\n"
	tr, err := ReadFIU(strings.NewReader(in), "fiu", FIUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged := Reassemble(tr.Requests, 1000)
	if len(merged) != 1 || merged[0].N != 2 {
		t.Fatalf("reassembled = %+v", merged)
	}
}

func TestReadFIUTimestampUnit(t *testing.T) {
	in := "0 1 p 0 8 W 8 0 a\n2 1 p 8 8 W 8 0 b\n"
	tr, err := ReadFIU(strings.NewReader(in), "fiu", FIUOptions{TimestampUnitUS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[1].Time != 2000 {
		t.Fatalf("ms timestamps not scaled: %v", tr.Requests[1].Time)
	}
}
