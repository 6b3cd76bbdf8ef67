package maptable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/nvram"
	"github.com/pod-dedup/pod/internal/trace"
)

// The reverse-index driver reads three bytes per operation — op, lba
// selector, pba selector — and holds the table to a forward-map model.
// The key pools are small so chains form, grow and empty constantly,
// and cover every representation: dense LBAs, the widely shared block's
// thousands of referrers, the last LBAs below trace.LBALimit; local
// blocks, local blocks past pagedCap (heads in the spill map), and
// remote-encoded canonicals, which the model lists no referrers for.
const revBulk = 2048 // referrers of the widely shared block

func revLBA(b byte) uint64 {
	switch {
	case b < 140:
		return uint64(b % 40)
	case b < 200: // inside the widely shared block's chain
		return 1000 + uint64(b-140)*34
	default:
		return trace.LBALimit - 1 - uint64(b%4)
	}
}

func revPBA(b byte) alloc.PBA {
	switch {
	case b < 150:
		return alloc.PBA(b%12) + 1
	case b < 220:
		return alloc.MakeRemote(int(b%3), alloc.PBA(b%5))
	default:
		return pagedCap + alloc.PBA(b%3)
	}
}

// revModel is the forward map and each block's mapping count. A local
// block's referrers are exactly the LBAs the forward map sends to it;
// a remote-encoded canonical lists none.
type revModel struct {
	fwd  map[uint64]alloc.PBA
	refs map[alloc.PBA]int
}

func newRevModel() *revModel {
	return &revModel{fwd: map[uint64]alloc.PBA{}, refs: map[alloc.PBA]int{}}
}

func (m *revModel) set(lba uint64, pba alloc.PBA) {
	if old, ok := m.fwd[lba]; ok {
		if m.refs[old]--; m.refs[old] == 0 {
			delete(m.refs, old)
		}
	}
	m.fwd[lba] = pba
	m.refs[pba]++
}

// chained is how many referrers the index should list for pba.
func (m *revModel) chained(pba alloc.PBA) int {
	if alloc.IsRemote(pba) {
		return 0 // only local blocks are chained
	}
	return m.refs[pba]
}

// touched compares what remapping lba from old to its model block
// changed: the mapping itself, the count of mappings, both blocks'
// reference counts and, with the index on, both blocks' chains — each
// as long as the model says, lba on the new block's (unless it is
// remote-encoded, which has none) and off the old one's. The rest of
// each chain is compared entry by entry at the next full verify.
func (m *revModel) touched(tb *Table, lba uint64, old alloc.PBA, hadOld, indexed bool) error {
	pba := m.fwd[lba]
	if got, ok := tb.Lookup(lba); !ok || got != pba {
		return fmt.Errorf("lba %d maps to %d (%v), model %d", lba, got, ok, pba)
	}
	if tb.Len() != len(m.fwd) {
		return fmt.Errorf("table holds %d mappings, model %d", tb.Len(), len(m.fwd))
	}
	chain := func(b alloc.PBA, holds bool) error {
		if got := tb.RefCount(b); got != m.refs[b] {
			return fmt.Errorf("pba %d has %d references, model %d", b, got, m.refs[b])
		}
		if !indexed {
			return nil
		}
		got := tb.Referrers(nil, b)
		if len(got) != m.chained(b) || slices.Contains(got, lba) != holds {
			return fmt.Errorf("Referrers(%d) = %d lbas, lba %d among them: %v; model %d, %v",
				b, len(got), lba, slices.Contains(got, lba), m.chained(b), holds)
		}
		return nil
	}
	if err := chain(pba, !alloc.IsRemote(pba)); err != nil {
		return err
	}
	if hadOld && old != pba {
		return chain(old, false)
	}
	return nil
}

// verify runs the table's audit and compares the mapping count and
// Referrers of every block of the pool, referenced or not, against the
// model: as many LBAs as the model chains, each once, each mapped to
// the block.
func (m *revModel) verify(tb *Table) error {
	if err := tb.CheckConsistency(); err != nil {
		return err
	}
	if tb.Len() != len(m.fwd) {
		return fmt.Errorf("table holds %d mappings, model %d", tb.Len(), len(m.fwd))
	}
	var got []uint64
	for _, pba := range revPool {
		got = tb.Referrers(got[:0], pba)
		slices.Sort(got)
		if len(got) != m.chained(pba) {
			return fmt.Errorf("Referrers(%d) = %d lbas %v, model %d", pba, len(got), head(got), m.chained(pba))
		}
		for i, lba := range got {
			if i > 0 && got[i-1] == lba {
				return fmt.Errorf("Referrers(%d) lists lba %d twice", pba, lba)
			}
			if m.fwd[lba] != pba {
				return fmt.Errorf("Referrers(%d) lists lba %d, which the model maps to %d", pba, lba, m.fwd[lba])
			}
		}
	}
	return nil
}

// revPool is every block revPBA can name.
var revPool = func() (pool []alloc.PBA) {
	for b := 0; b < 256; b++ {
		if pba := revPBA(byte(b)); !slices.Contains(pool, pba) {
			pool = append(pool, pba)
		}
	}
	return pool
}()

func head(s []uint64) []uint64 { return s[:min(len(s), 8)] }

// revFullEvery is how many operations may pass between two full
// verifies; each Set is checked for what it touched meanwhile.
const revFullEvery = 64

// runRevOps drives one table through data. Bit 0 of the first byte
// says whether the index is on from the start or enabled by a later
// operation, over whatever mappings exist by then. Every Set is checked for what it touched; an operation that
// rebuilds or rewrites (Compact, Load, EnableReverseIndex, the widely
// shared block's thousands of Sets) is followed by the full verify, as
// are every revFullEvery-th operation and the end of the input.
func runRevOps(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	dev := nvram.New(1 << 18) // small enough that the journal compacts itself now and then
	tb := New(dev)
	defer func() { tb.Release() }()
	m := newRevModel()
	enabled := data[0]&1 == 0
	if enabled {
		tb.EnableReverseIndex()
	}
	for i := 1; i+2 < len(data); i += 3 {
		op, lba, pba := data[i]%32, revLBA(data[i+1]), revPBA(data[i+2])
		full := i/3%revFullEvery == revFullEvery-1
		switch {
		case op < 28:
			old, hadOld := m.fwd[lba]
			tb.Set(lba, pba, data[i+2]&1 != 0)
			m.set(lba, pba)
			if err := m.touched(tb, lba, old, hadOld, enabled); err != nil {
				return fmt.Errorf("op %d (set lba %d to pba %d): %w", i/3, lba, pba, err)
			}
		case op == 28:
			tb.Compact()
			full = true
		case op == 29: // power failure: the journal is all that survives
			loaded, _, err := Load(dev)
			if err != nil {
				return err
			}
			tb.Release()
			tb = loaded
			if enabled {
				tb.EnableReverseIndex()
			}
			full = true
		case op == 30: // one block gains thousands of referrers
			for k := uint64(0); k < revBulk; k++ {
				tb.Set(1000+k, pba, true)
				m.set(1000+k, pba)
			}
			full = true
		case op == 31:
			enabled = true
			tb.EnableReverseIndex()
			full = true
		}
		if full && enabled {
			if err := m.verify(tb); err != nil {
				return fmt.Errorf("op %d (%d, lba %d, pba %d): %w", i/3, op, lba, pba, err)
			}
		}
	}
	if !enabled {
		tb.EnableReverseIndex()
	}
	return m.verify(tb)
}

// TestReverseIndexMatchesModel: random Set / remap / Compact /
// Load + EnableReverseIndex sequences against the forward-map model,
// each Set checked for what it touched and the audit and every block's
// referrers compared every revFullEvery operations. Each sequence starts by giving one block its thousands of
// referrers, so later operations cut into the middle of a long chain.
func TestReverseIndexMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		data := make([]byte, 1+3*2000)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0] = byte(seed) // index on from the start, or enabled late
		// the widely shared block: local, remote-encoded, a local one
		// past pagedCap in turn
		data[1], data[3] = 30, []byte{7, 167, 230, 47, 207, 250}[seed]
		if err := runRevOps(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReverseIndexAuditCatchesDamage: the audit is what the model test
// and every engine-level consistency check lean on, so each way the
// index can disagree with the forward map must fail it.
func TestReverseIndexAuditCatchesDamage(t *testing.T) {
	build := func() *Table {
		tb := New(nil)
		tb.EnableReverseIndex()
		for lba := uint64(0); lba < 6; lba++ {
			tb.Set(lba, alloc.PBA(1+lba/3), false) // two chains of three
		}
		tb.Set(6, alloc.MakeRemote(1, 3), true)
		if err := tb.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	for name, damage := range map[string]func(*Table){
		"entry missing from its chain": func(tb *Table) { tb.rev.remove(1, 1) },
		"entry on the wrong chain":     func(tb *Table) { tb.rev.remove(1, 1); tb.rev.add(2, 1) },
		"entry listed twice":           func(tb *Table) { tb.rev.add(1, 1) },
		"chain of an unmapped block":   func(tb *Table) { tb.rev.add(9, 0) },
		"broken predecessor link":      func(tb *Table) { tb.rev.link.set(1, tb.rev.link.get(1)&^linkMask|1) },
		"stray link word":              func(tb *Table) { tb.rev.link.set(77, 78) },
		"remote-encoded block chained": func(tb *Table) { tb.rev.add(alloc.MakeRemote(1, 3), 6) },
	} {
		tb := build()
		damage(tb)
		if err := tb.CheckConsistency(); err == nil {
			t.Errorf("%s: audit passed", name)
		}
		tb.Release()
	}
}

// FuzzReverseIndexOps is the same driver under the fuzzer.
func FuzzReverseIndexOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 1+3*300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// fill a chain, remap its first, middle and last entries elsewhere,
	// recover
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 20, 3, 0, 20, 1, 0, 20, 0, 0, 29, 0, 0, 0, 2, 200})
	// the widely shared block, on a remote canonical, enabled late
	f.Add([]byte{1, 30, 0, 160, 20, 150, 0, 0, 170, 3, 31, 0, 0, 20, 199, 0, 29, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2000 {
			return
		}
		if err := runRevOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkSetReverseIndexed is the scanner-era write path's Map-table
// share: remapping live LBAs over a small set of blocks with the
// reverse index on, so every Set unlinks from one chain and links into
// another. The index hashes nothing and must allocate nothing.
func BenchmarkSetReverseIndexed(b *testing.B) {
	const lbas = 1 << 16 // over 1<<12 blocks: the hash's top twelve bits
	tb := New(nil)
	tb.EnableReverseIndex()
	set := func(i int) { tb.Set(uint64(i)%lbas, alloc.PBA(uint64(i)*0x9e3779b97f4a7c15>>52), i%4 == 0) }
	for i := 0; i < lbas; i++ {
		set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set(i + lbas)
	}
	b.StopTimer()
	if avg := testing.AllocsPerRun(1000, func() { set(rand.Int()) }); avg != 0 {
		b.Fatalf("Set with the reverse index: %.2f allocs/op, want 0", avg)
	}
}
