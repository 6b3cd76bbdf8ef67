package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// extentModel is the allocator written the obvious way: one flag per
// block, the free extents read off them in address order.
type extentModel struct{ used []bool }

// extents returns the maximal free runs, lowest address first.
func (m *extentModel) extents() []Extent {
	var out []Extent
	for i := 0; i < len(m.used); {
		if m.used[i] {
			i++
			continue
		}
		j := i
		for j < len(m.used) && !m.used[j] {
			j++
		}
		out = append(out, Extent{Start: PBA(i), Count: uint64(j - i)})
		i = j
	}
	return out
}

func (m *extentModel) mark(start PBA, n uint64, used bool) {
	for b := start; b < start+PBA(n); b++ {
		m.used[b] = used
	}
}

// largest is AllocLargest's choice: the largest free extent, the lowest
// addressed of equals.
func (m *extentModel) largest() (Extent, bool) {
	var best Extent
	for _, e := range m.extents() {
		if e.Count > best.Count {
			best = e
		}
	}
	return best, best.Count > 0
}

// scattered is AllocScattered's choice: n blocks from the lowest
// addressed extents, each taken whole until the last, or nothing when
// fewer than n are free.
func (m *extentModel) scattered(n uint64) []Extent {
	var out []Extent
	free := uint64(0)
	for _, e := range m.extents() {
		free += e.Count
	}
	if n == 0 || free < n {
		return nil
	}
	for _, e := range m.extents() {
		if n == 0 {
			break
		}
		e.Count = min(e.Count, n)
		out = append(out, e)
		n -= e.Count
	}
	return out
}

// runs reports whether every block of [start, start+n) is in range and
// has the given state.
func (m *extentModel) runs(start PBA, n uint64, used bool) bool {
	if uint64(start)+n > uint64(len(m.used)) {
		return false
	}
	for b := start; b < start+PBA(n); b++ {
		if m.used[b] != used {
			return false
		}
	}
	return true
}

// freePanics calls Free and reports whether it panicked.
func freePanics(a *Allocator, start PBA, n uint64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	a.Free(start, n)
	return false
}

// agreeAlloc compares everything the allocator shows with the model,
// then runs its own audit.
func agreeAlloc(a *Allocator, m *extentModel) error {
	want := m.extents()
	if !slices.Equal(a.free, want) {
		return fmt.Errorf("free extents %v, want %v", a.free, want)
	}
	used, largest := uint64(0), uint64(0)
	for _, u := range m.used {
		if u {
			used++
		}
	}
	if e, ok := m.largest(); ok {
		largest = e.Count
	}
	if a.Used() != used || a.NumFreeExtents() != len(want) || a.LargestFree() != largest {
		return fmt.Errorf("used %d, %d extents, largest %d; want %d, %d, %d",
			a.Used(), a.NumFreeExtents(), a.LargestFree(), used, len(want), largest)
	}
	return a.CheckInvariants()
}

// runAllocOps interprets data as an allocator's size (its first byte)
// and a sequence of three-byte operations, applies them to an allocator
// and to the model, and compares every result and, after each
// operation, the whole free list.
func runAllocOps(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	size := 1 + uint64(data[0])
	a, m := New(size), &extentModel{used: make([]bool, size)}
	data = data[1:]
	for n := 0; len(data) >= 3; n++ {
		op, x, y := data[0], data[1], data[2]
		data = data[3:]
		what := ""
		switch op % 6 {
		case 0:
			k := uint64(y % 24) // 0 fails
			what = fmt.Sprintf("AllocLargest(%d)", k)
			got, ok := a.AllocLargest(k)
			e, free := m.largest()
			if wantOK := k > 0 && free && e.Count >= k; ok != wantOK || ok && got != e.Start {
				return fmt.Errorf("op %d %s = %d, %v; want %d, %v", n, what, got, ok, e.Start, wantOK)
			}
			if ok {
				m.mark(got, k, true)
			}
		case 1:
			k := uint64(y % 48) // 0 fails
			what = fmt.Sprintf("AllocScattered(%d)", k)
			got, ok := a.AllocScattered(k)
			want := m.scattered(k)
			if ok != (want != nil) || !slices.Equal(got, want) {
				return fmt.Errorf("op %d %s = %v, %v; want %v", n, what, got, ok, want)
			}
			for _, e := range got {
				m.mark(e.Start, e.Count, true)
			}
		case 2:
			// a run anywhere, past the end now and then, of up to 7
			// blocks; 0 fails
			start, k := PBA(uint64(x)%(size+4)), uint64(y%8)
			what = fmt.Sprintf("Reserve(%d, %d)", start, k)
			ok := a.Reserve(start, k)
			if want := k > 0 && m.runs(start, k, false); ok != want {
				return fmt.Errorf("op %d %s = %v, want %v", n, what, ok, want)
			}
			if ok {
				m.mark(start, k, true)
			}
		case 3, 4:
			// a run of allocated blocks, from the x-th in address order
			// for up to 1+y%8 blocks
			var held []PBA
			for b, u := range m.used {
				if u {
					held = append(held, PBA(b))
				}
			}
			if len(held) == 0 {
				continue
			}
			start, k := held[int(x)%len(held)], uint64(1)
			for k <= uint64(y%8) && m.runs(start+PBA(k), 1, true) {
				k++
			}
			what = fmt.Sprintf("Free(%d, %d)", start, k)
			if freePanics(a, start, k) {
				return fmt.Errorf("op %d %s panicked on allocated blocks", n, what)
			}
			m.mark(start, k, false)
		default:
			// any run, past the end now and then: Free must panic, and
			// change nothing, unless every block of it is allocated
			start, k := PBA(uint64(x)%(size+4)), uint64(y%8)
			what = fmt.Sprintf("Free(%d, %d), any run", start, k)
			valid := k == 0 || m.runs(start, k, true)
			if freePanics(a, start, k) == valid {
				return fmt.Errorf("op %d %s: panicked %v, want %v", n, what, valid, !valid)
			}
			if valid {
				m.mark(start, k, false)
			}
		}
		if err := agreeAlloc(a, m); err != nil {
			return fmt.Errorf("after op %d %s: %w", n, what, err)
		}
	}
	return nil
}

// TestAllocMatchesModel drives long random operation sequences over
// spaces of several sizes.
func TestAllocMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 1+3*2000)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0] = byte(seed * 31)
		if err := runAllocOps(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzAllocOps is the same driver under the fuzzer.
func FuzzAllocOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 1+3*200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// a 16-block space: fill it by runs, free every other run, reserve
	// into a hole, scatter over the holes, double-free, free past the end
	f.Add([]byte{15, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 3, 0, 0, 3, 2, 0,
		2, 1, 3, 1, 0, 8, 5, 4, 2, 5, 17, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runAllocOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
