package maptable

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/nvram"
	"github.com/pod-dedup/pod/internal/trace"
)

// FuzzLoad: recovery over arbitrary NVRAM contents must never panic —
// it either reports a structural error or returns an internally
// consistent table (refcounts exactly equal to the number of LBAs
// mapping to each block) whose every LBA is below the bound.
func FuzzLoad(f *testing.F) {
	// seeds: a real journal, one with a record past a retired one, and
	// one with a record past a record naming an LBA past the bound
	dev := nvram.New(1024)
	tb := New(dev)
	tb.Set(1, 100, false)
	tb.Set(2, 100, true)
	seed := make([]byte, dev.Size())
	dev.ReadAt(0, seed)
	f.Add(seed)
	for _, rec := range [][2]uint64{{1, flagRetired}, {trace.LBALimit, 300}} {
		dev := nvram.New(1024)
		tb := New(dev)
		tb.Set(1, 100, false)
		tb.Set(2, 100, true)
		journalRaw(tb, rec[0], rec[1])
		tb.Set(3, 300, false)
		seed := make([]byte, dev.Size())
		dev.ReadAt(0, seed)
		f.Add(seed)
	}
	f.Add(make([]byte, 1024))
	f.Add([]byte{0x31, 0x44, 0x4F, 0x50}) // magic only, truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<16 {
			return
		}
		d := nvram.New(len(data))
		if err := d.WriteAt(0, data); err != nil {
			t.Fatal(err)
		}
		tbl, _, err := Load(d)
		if err != nil {
			return
		}
		counts := map[alloc.PBA]int{}
		tbl.Each(func(lba uint64, pba alloc.PBA, _ bool) bool {
			if lba >= trace.LBALimit {
				t.Fatalf("recovered lba %d, past the logical-address bound", lba)
			}
			counts[pba]++
			return true
		})
		for pba, want := range counts {
			if tbl.RefCount(pba) != want {
				t.Fatalf("recovered refcount for %d = %d, want %d", pba, tbl.RefCount(pba), want)
			}
		}
	})
}
