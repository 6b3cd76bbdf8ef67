// Command podbench regenerates the POD paper's evaluation artifacts.
//
// Usage:
//
//	podbench [-scale f] [-workers n] [-cpuprofile f] [-memprofile f]
//	         [-bench-json f] [-bench-label s]
//	         [-metrics-out f] [-metrics-prom f] [-trace-sample n]
//	         [experiment ...]
//
// Experiments: table1 table2 fig1 fig2 fig3 fig8 fig9 fig10 fig11
// overhead all (default: all), plus the on-demand "capacity"
// (background-dedup reclamation), "streams" (per-stream index-cache
// apportionment), and "chunking" (fixed4k vs gear vs seqcdc on the
// shifted-content trace) experiments — excluded from "all" so the
// default artifact set matches the paper's engine matrix. Scale 1.0
// replays the paper's full request counts; smaller scales subsample
// proportionally.
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

var allExperiments = []string{"table1", "table2", "fig1", "fig2", "fig3", "fig8", "fig9",
	"fig10", "fig11", "overhead", "raw", "schemes", "ablations"}

func main() {
	// The replay working set is dominated by long-lived index and map
	// structures, so the default GOGC=100 re-traces that stable heap
	// far more often than it reclaims anything. A modestly relaxed target
	// wins ~4% wall; anything much larger backfires in kernel time
	// faulting in fresh heap pages. Honored only when GOGC is unset.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}
	scale := flag.Float64("scale", 1.0, "trace scale (1.0 = paper request counts)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel replays")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	benchJSON := flag.String("bench-json", "", "write a perf trajectory (per-experiment wall/allocs/RSS) to this file")
	benchLabel := flag.String("bench-label", "run", "label recorded in the -bench-json trajectory")
	metricsOut := flag.String("metrics-out", "", "write the merged replay metrics snapshot as JSON to this file")
	metricsProm := flag.String("metrics-prom", "", "write the merged replay metrics snapshot as Prometheus text to this file")
	traceSample := flag.Int("trace-sample", 0, "sample every nth measured request of each replay with its phase timeline (0 = off)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: podbench [-scale f] [-workers n] [-cpuprofile f] [-memprofile f]\n")
		fmt.Fprintf(os.Stderr, "                [-bench-json f] [-bench-label s] [-metrics-out f] [-metrics-prom f]\n")
		fmt.Fprintf(os.Stderr, "                [-trace-sample n] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 fig1 fig2 fig3 fig8 fig9 fig10 fig11 overhead raw schemes ablations all\n")
		fmt.Fprintf(os.Stderr, "             capacity (background-dedup reclamation; on demand, not in \"all\")\n")
		fmt.Fprintf(os.Stderr, "             streams (per-stream index-cache apportionment sweep; on demand, not in \"all\")\n")
		fmt.Fprintf(os.Stderr, "             chunking (fixed4k vs gear vs seqcdc on the shifted trace; on demand, not in \"all\")\n")
		fmt.Fprintf(os.Stderr, "profiling flags measure the harness itself: -cpuprofile/-memprofile write pprof\n")
		fmt.Fprintf(os.Stderr, "profiles, -bench-json writes a perf trajectory tagged with -bench-label\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *traceSample < 0 {
		fmt.Fprintf(os.Stderr, "podbench: -trace-sample must be >= 0 (got %d)\n", *traceSample)
		os.Exit(2)
	}

	// flag parsing stops at the first positional argument, so a
	// misplaced or misspelled flag ("podbench table2 -bogus") would
	// otherwise ride along as an experiment name; reject everything
	// up front rather than failing after minutes of replay.
	// "capacity" (background dedup reclamation), "streams" (per-stream
	// index-cache apportionment), and "chunking" (the content-defined
	// chunking axis) are on-demand only: they are not part of "all" so
	// the default artifact set stays identical to the paper's engine
	// matrix.
	known := map[string]bool{"all": true, "capacity": true, "streams": true, "chunking": true}
	for _, n := range allExperiments {
		known[n] = true
	}
	for _, name := range flag.Args() {
		if strings.HasPrefix(name, "-") {
			fmt.Fprintf(os.Stderr, "podbench: flag %q must come before the experiment names\n", name)
			flag.Usage()
			os.Exit(2)
		}
		if !known[strings.ToLower(name)] {
			fmt.Fprintf(os.Stderr, "podbench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	wanted := flag.Args()
	if len(wanted) == 0 {
		wanted = []string{"all"}
	}
	env := experiments.NewEnv(*scale, *workers)
	defer env.Close()
	env.TraceEvery = *traceSample
	var track perf.Tracker

	run := func(name string) bool {
		start := time.Now()
		ok := true
		var chunkRows []experiments.ChunkingRow
		track.Measure(name, func() {
			switch name {
			case "table1":
				fmt.Println(experiments.Table1())
			case "table2":
				t, _ := env.Table2()
				fmt.Println(t)
			case "fig1":
				t, _ := env.Fig1()
				fmt.Println(t)
			case "fig2":
				t, _ := env.Fig2()
				fmt.Println(t)
			case "fig3":
				t, _ := env.Fig3(nil)
				fmt.Println(t)
			case "fig8":
				t, _ := env.Fig8()
				fmt.Println(t)
			case "fig9":
				t, _ := env.Fig9Write()
				fmt.Println(t)
				t, _ = env.Fig9Read()
				fmt.Println(t)
			case "fig10":
				t, _ := env.Fig10()
				fmt.Println(t)
			case "fig11":
				t, _ := env.Fig11()
				fmt.Println(t)
			case "overhead":
				t, _, _ := env.Overhead()
				fmt.Println(t)
			case "raw":
				fmt.Println(env.Raw())
			case "capacity":
				t, _ := env.Capacity()
				fmt.Println(t)
			case "streams":
				t, _ := env.Streams()
				fmt.Println(t)
				t, _ = env.StreamsScan()
				fmt.Println(t)
			case "chunking":
				t, rows := env.Chunking()
				fmt.Println(t)
				chunkRows = rows
			case "schemes":
				fmt.Println(env.SchemesTable())
			case "ablations":
				fmt.Println(env.ThresholdSweep("homes", nil))
				fmt.Println(env.StripeUnitSweep("web-vm", nil))
				fmt.Println(env.DupSweep(nil))
				fmt.Println(env.LayoutSweep("web-vm"))
				h, d := env.DegradedPoint("homes")
				fmt.Printf("Degraded-mode ablation (homes, POD): healthy read %.2fms, one disk failed %.2fms\n\n", h/1000, d/1000)
			default:
				ok = false
			}
		})
		if !ok {
			return false
		}
		// chunking-throughput numbers join the trajectory entry so the
		// bench-delta gate watches the splitters' wall-clock rate
		for _, r := range chunkRows {
			track.Annotate("chunking_"+r.Algo+"_mbps", r.ThroughputMBs)
			track.Annotate("chunking_"+r.Algo+"_removed", float64(r.Removed))
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return true
	}

	for _, name := range wanted {
		name = strings.ToLower(name)
		if name == "all" {
			for _, n := range allExperiments {
				run(n)
			}
			continue
		}
		run(name)
	}

	snap := env.MetricsSnapshot()
	if *metricsOut != "" {
		if err := writeSnapshot(*metricsOut, snap.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsProm != "" {
		if err := writeSnapshot(*metricsProm, snap.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
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
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "podbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
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

// writeSnapshot writes one snapshot encoding ("-" = stdout) via the
// given writer method.
func writeSnapshot(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
