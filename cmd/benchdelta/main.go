// benchdelta compares a freshly generated perf trajectory against a
// committed reference (BENCH_replay.json) and exits non-zero when any
// shared entry regressed by more than the allowed fraction in heap
// allocations. Wall-clock deltas are printed beside them and never
// gate: allocation counts are deterministic for a given binary and
// trace, while wall-clock carries scheduler, cache and machine noise
// that failed this gate on unchanged code — wall judgements belong to
// `bench -compare`'s alternating parent/change pairs.
//
// Usage:
//
//	benchdelta -ref BENCH_replay.json -new /tmp/bench.json
//	           [-max-alloc-frac 0.10] [-min-allocs 100000]
//
// Entries are matched by name; names present in only one file are
// logged and skipped, never failed (the reference carries flood-sweep
// entries a plain podbench run does not regenerate, and a new bench
// label lands one run before its baseline is committed). The two
// trajectories must be recorded at the same scale — comparing a
// 0.1-scale run against full-scale numbers would flag nothing but the
// scale itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/pod-dedup/pod/internal/perf"
)

// limits groups the regression thresholds compare applies.
type limits struct {
	maxAllocFrac float64 // allowed allocation regression fraction
	minAllocs    uint64  // ignore alloc deltas on reference entries smaller than this
}

// compare walks the new trajectory against the reference, writing the
// per-entry report to w, and returns the number of entries that
// regressed beyond the limits. Entries whose name has no committed
// baseline are logged and skipped — a fresh bench label must be able
// to land one run before its reference exists — as are reference-only
// names. A scale mismatch is the one unconditional error: every delta
// would be an artifact of the scale, so nothing can be compared.
func compare(w io.Writer, refT, curT *perf.Trajectory, lim limits) (int, error) {
	if refT.Scale != curT.Scale {
		return 0, fmt.Errorf("scale mismatch: reference %g vs new %g", refT.Scale, curT.Scale)
	}

	refByName := make(map[string]*perf.Entry, len(refT.Entries))
	for i := range refT.Entries {
		e := &refT.Entries[i]
		if _, dup := refByName[e.Name]; !dup {
			refByName[e.Name] = e
		}
	}

	regressions := 0
	for i := range curT.Entries {
		n := &curT.Entries[i]
		r, ok := refByName[n.Name]
		if !ok {
			fmt.Fprintf(w, "benchdelta: %-12s new entry (no reference) — skipped\n", n.Name)
			continue
		}
		delete(refByName, n.Name)
		if r.WallMS > 0 {
			fmt.Fprintf(w, "benchdelta: %-12s wall  %9.1fms -> %9.1fms (%+.1f%%)\n",
				n.Name, r.WallMS, n.WallMS, 100*(n.WallMS/r.WallMS-1))
		}
		if r.Allocs >= lim.minAllocs {
			frac := float64(n.Allocs)/float64(r.Allocs) - 1
			if frac > lim.maxAllocFrac {
				fmt.Fprintf(w, "benchdelta: %-12s alloc %9d   -> %9d   (%+.1f%%) REGRESSION\n",
					n.Name, r.Allocs, n.Allocs, 100*frac)
				regressions++
			}
		}
	}
	for name := range refByName {
		fmt.Fprintf(w, "benchdelta: %-12s only in reference — skipped\n", name)
	}
	return regressions, nil
}

func main() {
	ref := flag.String("ref", "BENCH_replay.json", "committed reference trajectory")
	cur := flag.String("new", "", "freshly generated trajectory to check (required)")
	maxAllocFrac := flag.Float64("max-alloc-frac", 0.10, "allowed allocation regression fraction (allocs are deterministic)")
	minAllocs := flag.Uint64("min-allocs", 100000, "ignore alloc regressions on reference entries smaller than this")
	flag.Parse()
	if *cur == "" {
		flag.Usage()
		os.Exit(2)
	}

	refT, err := perf.ReadJSON(*ref)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdelta: %v\n", err)
		os.Exit(1)
	}
	curT, err := perf.ReadJSON(*cur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdelta: %v\n", err)
		os.Exit(1)
	}

	regressions, err := compare(os.Stdout, refT, curT, limits{maxAllocFrac: *maxAllocFrac, minAllocs: *minAllocs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdelta: %v\n", err)
		os.Exit(1)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdelta: %d regression(s) beyond alloc %.0f%%\n", regressions, 100**maxAllocFrac)
		os.Exit(1)
	}
	fmt.Printf("benchdelta: ok (%d entries compared within alloc %.0f%% of %s)\n",
		len(curT.Entries), 100**maxAllocFrac, *ref)
}
