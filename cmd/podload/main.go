// Command podload drives the sharded volume-serving layer
// (internal/server) with an open-loop synthetic workload and reports
// serving throughput, latency percentiles, and one verdict block per
// armed feature. It is flags → serving.Spec → serving.Run → Report:
// the flags below are the Spec's fields, every refusal is
// Spec.Validate's, and README.md ("Serving mode" onwards) says what
// each feature does. `podload -h` lists the flags.
//
// The process exits 0 on success, 1 if the run completes no requests,
// hits an error, or fails a verdict (the chaos oracle, a consistency
// audit, an outage that never closed), and 2 on flags it refuses.
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

	"github.com/pod-dedup/pod/internal/experiments/serving"
	"github.com/pod-dedup/pod/internal/perf"
)

func main() {
	// Long-lived shard indexes dominate the heap; relax the GC target
	// so it does not re-trace that stable working set every few
	// milliseconds (see the same setting in podbench).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is everything the command line sets: the run, and where the
// process-level outputs go.
type options struct {
	spec                              serving.Spec
	cpuprofile, benchJSON, benchLabel string
}

func (o *options) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("podload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	s := &o.spec
	fs.StringVar(&s.Trace, "trace", "mixed", "workload: mixed, web-vm, homes, or mail")
	fs.Float64Var(&s.Scale, "scale", 0.1, "trace scale (1.0 = paper request counts)")
	fs.StringVar(&s.Scheme, "scheme", "POD", "storage scheme per shard (Native, Full-Dedupe, iDedup, Select-Dedupe, POD, ...)")
	fs.IntVar(&s.Shards, "shards", 1, "independent engine shards")
	fs.IntVar(&s.Clients, "clients", 0, "client goroutines, each owning a disjoint subset of shards (default and cap: one per shard)")
	fs.Float64Var(&s.Rate, "rate", 0, "open-loop arrival rate, requests per simulated second (0 = flood)")
	fs.IntVar(&s.Queue, "queue", 128, "per-shard queue depth")
	fs.StringVar(&s.Policy, "policy", "block", "backpressure when a shard queue fills: block or shed")
	fs.Uint64Var(&s.RouteChunks, "route-chunks", 0, "routing granule in 4 KiB chunks (0 = default)")
	fs.StringVar(&s.Chunking, "chunking", "fixed4k", "per-shard chunker: fixed4k, gear, or seqcdc (CDC needs a dedup scheme; incompatible with -chaos)")
	fs.BoolVar(&s.Streams, "streams", false, "per-stream index-cache apportionment on every shard (POD / Select-Dedupe; needs a stream-tagged workload)")
	fs.StringVar(&s.StreamProfile, "stream-profile", "", "adversarial multi-tenant workload: adversarial (anti-phase burst tenants) or scan (plus a churning scan); requires -streams, replaces -trace")
	fs.BoolVar(&s.BGDedup, "bgdedup", false, "attach the idle-aware background dedup scanner to every shard (POD / Select-Dedupe)")
	fs.BoolVar(&s.Tier, "globalfp", false, "enable the global fingerprint tier: async cross-shard dedup recovery (arms -bgdedup; needs 2-64 shards)")
	fs.StringVar(&s.Chaos, "chaos", "", "fault scenario under a read-back oracle: sector, diskfail, storm, limp, full, bgdedup, globalfp, or shardcrash (needs -rate > 0)")
	fs.Uint64Var(&s.ChaosSeed, "chaos-seed", 1, "seed for the fault schedule and transient coin")
	fs.Int64Var(&s.DeadlineUS, "deadline-us", 0, "per-request virtual deadline in us (0 = none)")
	fs.IntVar(&s.CrashShard, "crash-shard", -1, "shard to crash mid-run (-1 = last shard; requires -chaos shardcrash)")
	fs.Int64Var(&s.CrashAtUS, "crash-at-us", 0, "virtual crash time in us (0 = horizon/3; requires -chaos shardcrash)")
	fs.Int64Var(&s.RecoverAtUS, "recover-at-us", 0, "virtual rejoin time in us (0 = 2/3 horizon; requires -chaos shardcrash)")
	fs.StringVar(&s.MetricsOut, "metrics-out", "", "write the merged metrics snapshot (with sampled traces) as JSON to this file; the run fails if it holds no histogram samples")
	fs.StringVar(&s.MetricsProm, "metrics-prom", "", "write the merged metrics snapshot as Prometheus text to this file")
	fs.IntVar(&s.TraceSample, "trace-sample", 0, "record every nth request per shard with its phase timeline (0 = off)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.benchJSON, "bench-json", "", "append this run's drive span (wall, allocations, throughput, percentiles) to a perf trajectory JSON file")
	fs.StringVar(&o.benchLabel, "bench-label", "podload", "entry name recorded in the -bench-json trajectory")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "podload: %v\n", err)
		return code
	}
	var o options
	fs, spec := o.flagSet(stderr), &o.spec
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if err := spec.Validate(); err != nil {
		return fail(2, err)
	}
	if procs := runtime.GOMAXPROCS(0); spec.Shards > procs {
		// still correct — simulated queueing runs in virtual time — but the
		// extra shard workers time-share CPUs
		fmt.Fprintf(stderr, "podload: warning: %d shards exceed GOMAXPROCS=%d; wall-clock throughput will not scale past %d workers (virtual-time queueing and latency numbers remain exact)\n",
			spec.Shards, procs, procs)
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := serving.Run(*spec)
	if rep != nil {
		rep.WriteText(stdout)
	}
	var refused serving.Refusal
	switch {
	case errors.As(err, &refused): // the one refusal that needs the trace's length
		return fail(2, err)
	case err != nil:
		return fail(1, err)
	}
	if o.benchJSON != "" {
		// Merge rather than overwrite: a shard sweep appends one entry per
		// run (named by -bench-label) to the trajectory podbench wrote,
		// building the flood-capacity curve in place.
		var track perf.Tracker
		rep.Drive.Name = o.benchLabel
		track.Append(rep.Drive)
		if err := track.MergeJSON(o.benchJSON, o.benchLabel, spec.Scale); err != nil {
			return fail(1, err)
		}
	}
	return 0
}
