package core

import (
	"testing"

	"github.com/pod-dedup/pod/internal/alloc"
)

func seqPBAs(start alloc.PBA, n int) []alloc.PBA {
	p := make([]alloc.PBA, n)
	for i := range p {
		p[i] = start + alloc.PBA(i)
	}
	return p
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

// classify runs ClassifyInto over a mask that starts all-true, so every
// case also checks the mask is cleared before the decision is written.
func classify(dup []bool, target []alloc.PBA, threshold int) (Category, []bool) {
	mask := allTrue(len(dup))
	return ClassifyInto(mask, dup, target, threshold), mask
}

func TestClassifyUnique(t *testing.T) {
	cat, mask := classify(make([]bool, 4), make([]alloc.PBA, 4), 3)
	if cat != CatUnique || countTrue(mask) != 0 {
		t.Fatalf("cat=%v deduped=%d", cat, countTrue(mask))
	}
}

func TestClassifyCat1FullySequential(t *testing.T) {
	cat, mask := classify(allTrue(4), seqPBAs(100, 4), 3)
	if cat != Cat1 || countTrue(mask) != 4 {
		t.Fatalf("cat=%v deduped=%d, want Cat1/4", cat, countTrue(mask))
	}
}

func TestClassifyCat1SingleChunk(t *testing.T) {
	// the small fully-redundant write — POD's headline case; trivially
	// sequential, must be eliminated even though 1 < threshold
	cat, mask := classify([]bool{true}, []alloc.PBA{42}, 3)
	if cat != Cat1 || !mask[0] {
		t.Fatalf("single redundant chunk: cat=%v, want Cat1", cat)
	}
}

func TestClassifyFullyDupButScattered(t *testing.T) {
	// fully redundant, but copies scattered: short runs must NOT be
	// deduplicated (fragmentation); with runs of 1 and threshold 3 the
	// request is rewritten in full
	targets := []alloc.PBA{10, 50, 90, 130}
	cat, mask := classify(allTrue(4), targets, 3)
	if cat != Cat2 || countTrue(mask) != 0 {
		t.Fatalf("scattered full dup: cat=%v deduped=%d, want Cat2/0", cat, countTrue(mask))
	}
}

func TestClassifyFullyDupTwoLongRuns(t *testing.T) {
	// fully redundant, two separate sequential runs of 3: both qualify
	targets := append(seqPBAs(10, 3), seqPBAs(100, 3)...)
	cat, mask := classify(allTrue(6), targets, 3)
	if cat != Cat3 || countTrue(mask) != 6 {
		t.Fatalf("two-run full dup: cat=%v deduped=%d, want Cat3/6", cat, countTrue(mask))
	}
}

func TestClassifyCat2BelowThreshold(t *testing.T) {
	// 2 redundant chunks < threshold 3: write everything
	dup := []bool{true, true, false, false}
	cat, mask := classify(dup, seqPBAs(10, 4), 3)
	if cat != Cat2 || countTrue(mask) != 0 {
		t.Fatalf("cat=%v deduped=%d, want Cat2/0", cat, countTrue(mask))
	}
}

func TestClassifyCat3QualifyingRun(t *testing.T) {
	// 3-chunk sequential duplicate run + 2 unique chunks
	dup := []bool{true, true, true, false, false}
	targets := []alloc.PBA{10, 11, 12, 0, 0}
	cat, mask := classify(dup, targets, 3)
	if cat != Cat3 {
		t.Fatalf("cat=%v, want Cat3", cat)
	}
	if !mask[0] || !mask[1] || !mask[2] || mask[3] || mask[4] {
		t.Fatalf("mask=%v", mask)
	}
}

func TestClassifyCat2ScatteredAboveThreshold(t *testing.T) {
	// 3 redundant chunks but all in scattered singleton runs: the
	// count passes the threshold, the layout does not → Cat2
	dup := []bool{true, false, true, false, true}
	targets := []alloc.PBA{10, 0, 50, 0, 90}
	cat, mask := classify(dup, targets, 3)
	if cat != Cat2 || countTrue(mask) != 0 {
		t.Fatalf("cat=%v deduped=%d, want Cat2/0", cat, countTrue(mask))
	}
}

func TestClassifyMixedRuns(t *testing.T) {
	// one qualifying run (3) and one short run (1): dedupe only the
	// qualifying run
	dup := []bool{true, true, true, false, true}
	targets := []alloc.PBA{10, 11, 12, 0, 99}
	cat, mask := classify(dup, targets, 3)
	if cat != Cat3 {
		t.Fatalf("cat=%v, want Cat3", cat)
	}
	if countTrue(mask) != 3 || mask[4] {
		t.Fatalf("mask=%v", mask)
	}
}

func TestClassifyRunBrokenByNonSequentialPBA(t *testing.T) {
	// three duplicates whose copies are NOT consecutive: runs of 1
	dup := []bool{true, true, true}
	targets := []alloc.PBA{10, 20, 30}
	cat, mask := classify(dup, targets, 3)
	if cat != Cat2 || countTrue(mask) != 0 {
		t.Fatalf("cat=%v deduped=%d, want Cat2/0", cat, countTrue(mask))
	}
}

func TestClassifyThresholdOne(t *testing.T) {
	// threshold 1 degenerates to Full-Dedupe-like behaviour
	dup := []bool{true, false, true}
	targets := []alloc.PBA{10, 0, 30}
	cat, mask := classify(dup, targets, 1)
	if cat != Cat3 || countTrue(mask) != 2 {
		t.Fatalf("cat=%v deduped=%d, want Cat3/2", cat, countTrue(mask))
	}
}
