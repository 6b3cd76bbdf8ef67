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
	"flag"
	"fmt"
	"os"

	pod "github.com/pod-dedup/pod"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

func main() {
	scheme := flag.String("scheme", "POD", "Native | Full-Dedupe | iDedup | Select-Dedupe | POD")
	traceName := flag.String("trace", "web-vm", "built-in trace: web-vm, homes, mail, shifted")
	chunking := flag.String("chunking", "fixed4k", "chunker: fixed4k, gear, or seqcdc (CDC needs a dedup scheme, not Native)")
	file := flag.String("file", "", "replay a trace file instead of a built-in (text format)")
	fiu := flag.Bool("fiu", false, "treat -file as an FIU SRT record stream (reassembled at 1 ms)")
	scale := flag.Float64("scale", 1.0, "built-in trace scale")
	disks := flag.Int("disks", 4, "spindles")
	diskBlocks := flag.Uint64("diskblocks", 0, "blocks per spindle (default: derived from trace)")
	stripeKB := flag.Int("stripe", 64, "stripe unit in KB")
	memoryMB := flag.Float64("memory", 0, "cache DRAM in MB (default: trace profile)")
	indexFrac := flag.Float64("indexfrac", 0.5, "initial index-cache share")
	threshold := flag.Int("threshold", 3, "Select-Dedupe redundancy threshold (chunks)")
	idedupThresh := flag.Int("idedup-threshold", 8, "iDedup minimum duplicate sequence (chunks)")
	history := flag.Bool("history", false, "print the iCache partition trajectory (POD only)")
	latencies := flag.String("latencies", "", "write per-request latencies as CSV to this file")
	flag.Parse()

	schemeName, err := pod.ParseScheme(*scheme)
	if err != nil {
		fatal(err)
	}
	*scheme = string(schemeName)
	// fail fast on an unknown chunker name, before any trace is built
	algo, err := cdc.ParseAlgo(*chunking)
	if err != nil {
		fatal(err)
	}
	if err := experiments.CheckAxes(*scheme, experiments.Axes{Chunking: algo}); err != nil {
		fatal(err)
	}

	var tr *trace.Trace
	var warmup int
	var shiftedDims workload.MixedDims
	shifted := *file == "" && *traceName == "shifted"
	prof, profOK := workload.ByName(*traceName)
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
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
			fatal(err)
		}
	} else if shifted {
		tr, warmup, shiftedDims = workload.ShiftedSnapshot(*scale)
	} else {
		if !profOK {
			fatal(fmt.Errorf("unknown trace %q", *traceName))
		}
		tr, warmup = workload.Generate(prof, *scale)
	}

	blocks := *diskBlocks
	if blocks == 0 {
		switch {
		case shifted:
			blocks = shiftedDims.FootprintChunks
		case profOK && *file == "":
			blocks = prof.FootprintChunks / 2
		default:
			blocks = 1 << 19
		}
	}
	mem := int64(*memoryMB * (1 << 20))
	if mem == 0 {
		switch {
		case shifted:
			// the shifted profile's budget is tuned to its chunk
			// fingerprint population, not the request count
			mem = shiftedDims.MemoryBytes
		case profOK && *file == "":
			mem = int64(float64(prof.MemoryBytes) * *scale)
		default:
			mem = 32 << 20
		}
		if mem < 1<<19 {
			mem = 1 << 19
		}
	}
	cfg := experiments.Platform(*disks, blocks, raid.RAID5, uint64(*stripeKB/4), mem, int(blocks*uint64(*disks)*24))
	cfg.IndexFrac = *indexFrac
	cfg.Threshold = *threshold
	cfg.IDedupThreshold = *idedupThresh
	cfg.Chunking = cdc.Params{Algo: algo}
	eng := experiments.NewEngine(*scheme, cfg)

	var lat *os.File
	if *latencies != "" {
		var err error
		lat, err = os.Create(*latencies)
		if err != nil {
			fatal(err)
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

	st := res.Stats
	t := stats.NewTable(fmt.Sprintf("%s on %s (%d requests, %d warm-up)",
		*scheme, tr.Name, len(tr.Requests), warmup), "Metric", "Value")
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
	t.AddRow("Physical blocks used", fmt.Sprintf("%d", res.UsedBlocks))
	t.AddRow("Map-table NVRAM peak", fmt.Sprintf("%.2f MB", float64(st.NVRAMPeakBytes)/(1<<20)))
	fmt.Println(t)

	if *history {
		// every scheme is an *engine.Pipeline over a Base with an iCache
		pts := eng.(*engine.Pipeline).Base().IC.History()
		ht := stats.NewTable(fmt.Sprintf("iCache partition trajectory (%d repartitions)", len(pts)),
			"Virtual time", "Index share")
		for _, p := range pts {
			ht.AddRow(p.Time.String(), stats.Pct(p.IndexFrac*100))
		}
		fmt.Println(ht)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "podsim: %v\n", err)
	os.Exit(1)
}
