// Command podbench regenerates the POD paper's evaluation artifacts.
//
// Usage:
//
//	podbench [-scale f] [-workers n] [-cpuprofile f] [-memprofile f]
//	         [-bench-json f] [-bench-label s]
//	         [-metrics-out f] [-metrics-prom f] [-trace-sample n]
//	         [experiment ...]
//
// The experiments are the entries of experiments.Catalogue, by id;
// "all" (the default) runs the ones the catalogue marks as part of it —
// the paper's engine matrix, the set committed as results_full.txt —
// and the rest run on demand only. `podbench -h` lists both groups off
// the same table. Scale 1.0 replays the paper's full request counts;
// smaller scales subsample proportionally.
//
// The profiling flags measure the harness itself (how fast the
// experiments regenerate), never the simulated system: -cpuprofile and
// -memprofile write pprof profiles, -bench-json writes a perf
// trajectory with per-experiment wall time, allocation counts, and
// peak RSS.
//
// The observability flags expose the simulated system instead:
// -metrics-out / -metrics-prom write the merged metrics snapshot of
// every replay (per-phase latency histograms, substrate gauges) as
// JSON / Prometheus text; -trace-sample n samples every nth measured
// request of each replay with its phase timeline into the snapshot.
// With -bench-json, per-phase histogram summaries additionally join the
// trajectory as a "phases" entry, so BENCH_replay.json carries the
// breakdown alongside wall-clock numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/perf"
)

func main() {
	// The replay working set is dominated by long-lived index and map
	// structures, so the default GOGC=100 re-traces that stable heap
	// far more often than it reclaims anything. A modestly relaxed target
	// wins ~4% wall; anything much larger backfires in kernel time
	// faulting in fresh heap pages. Honored only when GOGC is unset.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// plan resolves the experiment arguments against the catalogue: "all"
// (also the default) expands to its members in catalogue order.
// Flag parsing stops at the first positional argument, so a misplaced
// or misspelled flag ("podbench table2 -bogus") would otherwise ride
// along as an experiment name; everything is rejected up front rather
// than failing after minutes of replay.
func plan(args []string) ([]experiments.Experiment, error) {
	if len(args) == 0 {
		args = []string{"all"}
	}
	var out []experiments.Experiment
	for _, name := range args {
		if strings.HasPrefix(name, "-") {
			return nil, fmt.Errorf("flag %q must come before the experiment names", name)
		}
		if strings.EqualFold(name, "all") {
			for _, x := range experiments.Catalogue {
				if x.InAll {
					out = append(out, x)
				}
			}
			continue
		}
		x, err := experiments.FindExperiment(name)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("podbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1.0, "trace scale (1.0 = paper request counts)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel replays")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	benchJSON := fs.String("bench-json", "", "write a perf trajectory (per-experiment wall/allocs/RSS) to this file")
	benchLabel := fs.String("bench-label", "run", "label recorded in the -bench-json trajectory")
	metricsOut := fs.String("metrics-out", "", "write the merged replay metrics snapshot as JSON to this file")
	metricsProm := fs.String("metrics-prom", "", "write the merged replay metrics snapshot as Prometheus text to this file")
	traceSample := fs.Int("trace-sample", 0, "sample every nth measured request of each replay with its phase timeline (0 = off)")
	fs.Usage = func() {
		var inAll, onDemand []string
		for _, x := range experiments.Catalogue {
			if x.InAll {
				inAll = append(inAll, x.ID)
			} else {
				onDemand = append(onDemand, x.ID)
			}
		}
		fmt.Fprintf(stderr, "usage: podbench [-scale f] [-workers n] [-cpuprofile f] [-memprofile f]\n")
		fmt.Fprintf(stderr, "                [-bench-json f] [-bench-label s] [-metrics-out f] [-metrics-prom f]\n")
		fmt.Fprintf(stderr, "                [-trace-sample n] [experiment ...]\n")
		fmt.Fprintf(stderr, "experiments: %s all\n", strings.Join(inAll, " "))
		fmt.Fprintf(stderr, "             on demand, not in \"all\": %s\n", strings.Join(onDemand, " "))
		fmt.Fprintf(stderr, "profiling flags measure the harness itself: -cpuprofile/-memprofile write pprof\n")
		fmt.Fprintf(stderr, "profiles, -bench-json writes a perf trajectory tagged with -bench-label\n")
		fs.PrintDefaults()
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "podbench: %v\n", err)
		if code == 2 {
			fs.Usage()
		}
		return code
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *traceSample < 0 {
		return fail(2, fmt.Errorf("-trace-sample must be >= 0 (got %d)", *traceSample))
	}
	wanted, err := plan(fs.Args())
	if err != nil {
		return fail(2, err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	env := experiments.NewEnv(*scale, *workers)
	env.TraceEvery = *traceSample
	var track perf.Tracker
	for _, x := range wanted {
		start := time.Now()
		track.Measure(x.ID, func() { x.Print(env, stdout) })
		if x.ID == "chunking" {
			// chunking-throughput numbers join the trajectory entry so the
			// bench-delta gate watches the splitters' wall-clock rate
			_, rows := env.Chunking()
			for _, r := range rows {
				track.Annotate("chunking_"+r.Algo+"_mbps", r.ThroughputMBs)
				track.Annotate("chunking_"+r.Algo+"_removed", float64(r.Removed))
			}
		}
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", x.ID, time.Since(start).Round(time.Millisecond))
	}

	snap := env.MetricsSnapshot()
	if err := errors.Join(writeSnapshot(*metricsOut, stdout, snap.WriteJSON),
		writeSnapshot(*metricsProm, stdout, snap.WritePrometheus)); err != nil {
		return fail(1, err)
	}
	if *benchJSON != "" {
		// Per-phase latency summaries ride the trajectory as their own
		// entry, so BENCH_replay.json carries the simulated breakdown
		// next to the harness wall-clock numbers. The summary pass is
		// itself measured (wall/allocs of condensing the histograms),
		// so the row carries real harness cost instead of zeros that
		// trajectory diffs would read as a regression-proof entry.
		var pe *perf.Entry
		track.Measure("phases", func() { pe = phasesEntry(snap) })
		if pe == nil {
			track.Annotate("no_phase_samples", 1)
		} else {
			for k, v := range pe.Extra {
				track.Annotate(k, v)
			}
		}
		if err := track.WriteJSON(*benchJSON, *benchLabel, *scale); err != nil {
			return fail(1, err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(1, err)
		}
	}
	return 0
}

// phasesEntry condenses the merged snapshot's per-phase latency
// histograms into one trajectory entry (mean/p50/p95/count per phase,
// in simulated microseconds); nil when no phase recorded a sample.
func phasesEntry(snap *metrics.Snapshot) *perf.Entry {
	extra := make(map[string]float64)
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, "phase_") || h.N == 0 {
			continue
		}
		base := strings.TrimSuffix(name, "_us")
		extra[base+"_mean_us"] = h.Mean()
		extra[base+"_p50_us"] = h.Percentile(50)
		extra[base+"_p95_us"] = h.Percentile(95)
		extra[base+"_count"] = float64(h.N)
	}
	if len(extra) == 0 {
		return nil
	}
	return &perf.Entry{Name: "phases", Extra: extra}
}

// writeSnapshot writes one snapshot encoding via the given writer
// method ("" = nowhere, "-" = stdout).
func writeSnapshot(path string, stdout io.Writer, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
