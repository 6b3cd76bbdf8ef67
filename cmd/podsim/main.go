// Command podsim replays one trace against one storage scheme with
// tunable platform knobs, printing a detailed measurement report.
//
// Usage:
//
//	podsim -scheme POD -trace mail -scale 0.5
//	podsim -scheme Select-Dedupe -file mytrace.txt -memory 64
//	podsim -scheme POD -trace shifted -chunking gear
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind argv: 0 on success, 1 on a run that fails,
// 2 on a command line it refuses — every platform flag is checked
// before any trace is built, so a bad one costs nothing and panics
// nowhere.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "podsim: "+format+"\n", a...)
		return code
	}
	fs := flag.NewFlagSet("podsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scheme := fs.String("scheme", "POD", "Native | Full-Dedupe | iDedup | Select-Dedupe | POD")
	traceName := fs.String("trace", "web-vm", "built-in trace: web-vm, homes, mail, shifted")
	chunking := fs.String("chunking", "fixed4k", "chunker: fixed4k, gear, or seqcdc (CDC needs a dedup scheme, not Native)")
	file := fs.String("file", "", "replay a trace file instead of a built-in (text format)")
	fiu := fs.Bool("fiu", false, "treat -file as an FIU SRT record stream (reassembled at 1 ms)")
	scale := fs.Float64("scale", 1.0, "built-in trace scale")
	disks := fs.Int("disks", 4, "spindles (RAID5: at least 3)")
	diskBlocks := fs.Uint64("diskblocks", 0, "blocks per spindle (default: the trace's platform)")
	stripeKB := fs.Int("stripe", 64, "stripe unit in KB (a multiple of 4)")
	memoryMB := fs.Float64("memory", 0, "cache DRAM in MB (default: the trace's platform)")
	indexFrac := fs.Float64("indexfrac", 0.5, "initial index-cache share, in (0, 1)")
	threshold := fs.Int("threshold", 3, "Select-Dedupe redundancy threshold (chunks)")
	idedupThresh := fs.Int("idedup-threshold", 8, "iDedup minimum duplicate sequence (chunks)")
	history := fs.Bool("history", false, "print the iCache partition trajectory (POD only)")
	latencies := fs.String("latencies", "", "write per-request latencies as CSV to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		return fail(2, "unexpected argument %q", fs.Arg(0))
	}

	algo, err := cdc.ParseAlgo(*chunking)
	if err != nil {
		return fail(2, "-chunking: %v", err)
	}
	// a built-in trace runs on the platform podbench replays it on, a
	// trace file on the library's default; each platform flag overrides
	// one dimension, and Build refuses what it cannot build before any
	// trace is generated
	p, builtIn := experiments.CellPlatform(*traceName, *scale)
	if *file != "" {
		p = experiments.DefaultPlatform()
	}
	for _, f := range []struct {
		bad        bool
		flag, want string
	}{
		{!(*scale > 0), "-scale", "must be > 0"},
		{!(*indexFrac > 0 && *indexFrac < 1), "-indexfrac", "must be in (0, 1)"},
		{*threshold < 0, "-threshold", "must be >= 0"},
		{*idedupThresh < 0, "-idedup-threshold", "must be >= 0"},
		{*file == "" && !builtIn, "-trace", "must be web-vm, homes, mail, or shifted"},
	} {
		if f.bad {
			return fail(2, "%s %s", f.flag, f.want)
		}
	}
	p.Disks, p.StripeKB, p.DiskBlocks = *disks, *stripeKB, cmp.Or(*diskBlocks, p.DiskBlocks)
	if *memoryMB != 0 {
		p.MemoryBytes = int64(*memoryMB * (1 << 20))
	}
	eng, err := experiments.Build(*scheme, p, experiments.Axes{Chunking: algo}, func(c *engine.Config) {
		c.IndexFrac, c.Threshold, c.IDedupThreshold = *indexFrac, *threshold, *idedupThresh
	})
	if err != nil {
		return fail(2, "-%v", err) // the error leads with the flag's name
	}

	var tr *trace.Trace
	var warmup int
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return fail(1, "%v", err)
		}
		defer f.Close()
		if *fiu {
			tr, err = trace.ReadFIU(f, *file, trace.FIUOptions{})
			if err == nil {
				tr.Requests = trace.Reassemble(tr.Requests, 1000)
			}
		} else {
			tr, err = trace.ReadText(f, *file)
		}
		if err != nil {
			return fail(1, "%v", err)
		}
	} else if *traceName == "shifted" {
		tr, warmup, _ = workload.ShiftedSnapshot(*scale)
	} else {
		prof, _ := workload.ByName(*traceName)
		tr, warmup = workload.Generate(prof, *scale)
	}

	var lat *os.File
	if *latencies != "" {
		var err error
		lat, err = os.Create(*latencies)
		if err != nil {
			return fail(1, "%v", err)
		}
		defer lat.Close()
		fmt.Fprintln(lat, "seq,time_us,op,lba,chunks,latency_us")
	}

	var res *replay.Result
	if lat == nil {
		res = replay.Run(eng, tr, warmup)
	} else {
		res = replay.RunObserved(eng, tr, warmup, func(i int, r *trace.Request, rt int64) {
			op := "R"
			if r.Op == trace.Write {
				op = "W"
			}
			fmt.Fprintf(lat, "%d,%d,%s,%d,%d,%d\n", i, int64(r.Time), op, r.LBA, r.N, rt)
		})
	}

	if res.Err != nil {
		return fail(1, "%v", res.Err)
	}
	fmt.Fprintln(stdout, report(fmt.Sprintf("%s on %s (%d requests, %d warm-up)",
		eng.Name(), tr.Name, len(tr.Requests), warmup), algo, res))

	if *history {
		// every scheme is an *engine.Pipeline over a Base with an iCache
		pts := eng.(*engine.Pipeline).Base().IC.History()
		ht := stats.NewTable(fmt.Sprintf("iCache partition trajectory (%d repartitions)", len(pts)),
			"Virtual time", "Index share")
		for _, p := range pts {
			ht.AddRow(p.Time.String(), stats.Pct(p.IndexFrac*100))
		}
		fmt.Fprintln(stdout, ht)
	}
	return 0
}

// report renders a replay's measurements under title; a chunker other
// than fixed4k gets a row of its own.
func report(title string, algo cdc.Algo, res *replay.Result) *stats.Table {
	st := res.Stats
	t := stats.NewTable(title, "Metric", "Value")
	if algo != cdc.Fixed4K {
		t.AddRow("Chunker", algo.String())
	}
	t.AddRow("Mean response time", stats.Ms(res.MeanRT))
	t.AddRow("Mean write RT", stats.Ms(res.MeanWriteRT))
	t.AddRow("Mean read RT", stats.Ms(res.MeanReadRT))
	t.AddRow("P95 write RT", stats.Ms(res.P95WriteRT))
	t.AddRow("P95 read RT", stats.Ms(res.P95ReadRT))
	t.AddRow("Write requests removed", stats.Pct(st.WriteRemovalPct()))
	t.AddRow("Chunks deduplicated", stats.Pct(st.DedupRatioPct()))
	t.AddRow("Read-cache hit ratio", stats.Pct(st.CacheHitPct()))
	t.AddRow("Request categories 1/2/3", fmt.Sprintf("%d / %d / %d", st.Cat1, st.Cat2, st.Cat3))
	t.AddRow("On-disk index lookups", fmt.Sprintf("%d", st.IndexDiskIOs))
	t.AddRow("Swap-in I/Os", fmt.Sprintf("%d", st.SwapInIOs))
	t.AddRow("Background dedup reads", fmt.Sprintf("%d", st.BackgroundIOs))
	t.AddRow("Physical blocks used", fmt.Sprintf("%d", res.UsedBlocks))
	t.AddRow("Map-table NVRAM peak", fmt.Sprintf("%.2f MB", float64(st.NVRAMPeakBytes)/(1<<20)))
	return t
}
