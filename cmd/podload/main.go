// Command podload drives the sharded volume-serving layer
// (internal/server) with an open-loop synthetic workload and reports
// serving throughput and latency percentiles.
//
// Usage:
//
//	podload [-trace mixed|web-vm|homes|mail] [-scale f] [-scheme s]
//	        [-shards n] [-clients n] [-rate r] [-requests n]
//	        [-write-ratio f] [-queue n] [-batch n] [-policy block|shed]
//	        [-route-chunks n] [-submit-batch n] [-cpuprofile f]
//	        [-chunking fixed4k|gear|seqcdc]
//	        [-streams] [-stream-profile adversarial|scan]
//	        [-bench-json f] [-bench-label s]
//	        [-metrics-out f] [-metrics-prom f] [-trace-sample n]
//
// The generator is open-loop: every request's virtual arrival time is
// fixed up front from the arrival rate (-rate, requests per simulated
// second; 0 floods every arrival at t=0), independent of completions —
// an overloaded configuration therefore shows its congestion as
// queueing delay in the latency percentiles rather than by slowing the
// injection. Client goroutines submit concurrently, each owning a
// disjoint subset of shards (client = shard mod clients): every shard
// receives its arrival stream in schedule order, so the per-shard FCFS
// queueing model measures real congestion, not wall-clock submission
// skew between clients. -clients is therefore capped at -shards.
// Submission is batched (-submit-batch, default 256): each client
// accumulates requests and hands them to server.SubmitBatch, which
// buckets them per shard and enqueues one entry per touched shard —
// the cross-shard scaling path. -submit-batch 1 reverts to one
// Submit per request. -cpuprofile profiles the serving harness.
//
// Reported latency is virtual-time sojourn (queue wait + service);
// reported throughput is completed requests per virtual second across
// the serving window, plus the wall-clock rate of the harness itself.
// With -bench-json the run joins the internal/perf trajectory, with
// throughput and percentiles attached to the entry's "extra" map.
//
// Observability: -metrics-out writes the merged metrics snapshot
// (per-phase latency histograms, shard-labeled queue-wait and service
// series, substrate gauges, and any sampled traces) as JSON;
// -metrics-prom writes the same snapshot as a Prometheus text dump;
// -trace-sample n records every nth request per shard with its full
// phase timeline. With -metrics-out the run additionally fails (exit 1)
// if the snapshot contains no histogram samples — the CI smoke
// assertion that the metrics pipeline is live.
//
// Multi-tenant streams: -streams enables per-stream fingerprint-index
// apportionment on every shard's engine (POD and Select-Dedupe schemes
// only) — the iCache index partition is divided into per-tenant quotas
// by the locality estimator, with a shared floor. It needs a
// stream-tagged workload: the mixed trace (tenants tagged 1-3) or an
// adversarial profile via -stream-profile (adversarial = two anti-phase
// burst tenants; scan = those plus a churning low-locality scan), which
// replaces -trace and pins the engine DRAM budget to the profile's
// tuning. The run prints a per-stream verdict block — writes, writes
// removed inline (pct recomputed from the counts merged across
// shards), and each tenant's summed index quota — and fails (exit 1)
// if no stream-tagged write reached any engine.
//
// Background dedup: -bgdedup attaches the idle-aware out-of-line
// deduplication scanner (internal/bgdedup) to every shard's engine
// (POD and Select-Dedupe schemes only). The scanner runs in virtual
// time through the same disk queues as foreground I/O, yielding
// whenever the array has backlog, and reclaims the duplicate copies
// the inline path intentionally wrote; the run prints a background
// verdict block with allocator and scanner counters.
// -bgdedup-rate budgets it in blocks per simulated second and
// -bgdedup-expect-reclaim turns "reclaimed > 0" into an exit-code
// assertion (the CI smoke check).
//
// Chaos: -chaos <scenario> runs a named, seeded fault schedule
// (internal/chaos; sector, diskfail, storm, limp, full, bgdedup,
// globalfp, or shardcrash
// — bgdedup auto-arms -bgdedup and, after the oracle passes, crash-
// recovers every shard and re-verifies both the oracle and each
// shard's map/allocator consistency) against
// every shard's array while serving, switches the clients to the
// closed-loop Do path, and verifies a read-back integrity oracle after
// the drain: every block whose write the server ACKED must read back
// with exactly the acknowledged content. Requires -rate > 0 (faults are
// placed within the arrival horizon). -chaos-seed varies the schedule,
// -deadline-us arms per-request virtual deadlines. Any oracle violation
// fails the run.
//
// Shard outage: -chaos shardcrash (auto-arms -globalfp; needs at least
// 2 shards) crashes one shard mid-run as an isolated failure domain —
// requests routed to it fail-reply with transient shard-down errors,
// the tier fences its epoch and sweeps its advertisements, and the
// surviving shards keep serving — then rejoins it via journal replay
// and a cross-shard pin re-audit. -crash-shard picks the victim
// (default: the last shard), -crash-at-us/-recover-at-us place the
// outage window in virtual time (defaults: horizon/3 and 2/3 horizon).
// The run prints a shard-outage verdict (fencing epochs, stale and
// down-shard drops, recall timeouts, refused requests) and fails
// unless the crash fired, the shard rejoined, and the cluster-wide
// consistency audit passes.
//
// The process exits 0 on success, 1 if the run completes no requests,
// hits an error, or violates the chaos oracle, and 2 on bad flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pod "github.com/pod-dedup/pod"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chaos"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/globalfp"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/perf"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

func main() {
	// Long-lived shard indexes dominate the heap; relax the GC target
	// so it does not re-trace that stable working set every few
	// milliseconds (see the same setting in podbench).
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(200)
	}
	traceName := flag.String("trace", "mixed", "workload: mixed, web-vm, homes, or mail")
	scale := flag.Float64("scale", 0.1, "trace scale (1.0 = paper request counts)")
	scheme := flag.String("scheme", experiments.POD, "storage scheme per shard (Native, Full-Dedupe, iDedup, Select-Dedupe, POD, ...)")
	shards := flag.Int("shards", 1, "independent engine shards")
	clients := flag.Int("clients", 0, "client goroutines (default: one per shard)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate, requests per simulated second (0 = flood)")
	requests := flag.Int("requests", 0, "cap on requests to serve (0 = whole trace)")
	writeRatio := flag.Float64("write-ratio", -1, "override the profile's write fraction, 0..1 (-1 = keep; named traces only)")
	queue := flag.Int("queue", 128, "per-shard queue depth")
	batch := flag.Int("batch", 32, "max requests a shard worker serves per drain")
	policyName := flag.String("policy", "block", "backpressure when a shard queue fills: block or shed")
	routeChunks := flag.Uint64("route-chunks", 0, "routing granule in 4 KiB chunks (0 = default)")
	submitBatch := flag.Int("submit-batch", 256, "client-side submission batch: requests bucketed per shard and enqueued in one send (1 = per-request Submit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the serving harness to this file")
	benchJSON := flag.String("bench-json", "", "append this run to a perf trajectory JSON file")
	benchLabel := flag.String("bench-label", "podload", "label recorded in the -bench-json trajectory")
	metricsOut := flag.String("metrics-out", "", "write the merged metrics snapshot (with sampled traces) as JSON to this file")
	metricsProm := flag.String("metrics-prom", "", "write the merged metrics snapshot as Prometheus text to this file")
	traceSample := flag.Int("trace-sample", 0, "record every nth request per shard with its phase timeline (0 = off)")
	chaosName := flag.String("chaos", "", "fault scenario: sector, diskfail, storm, limp, full, bgdedup, globalfp, or shardcrash (\"\" = none)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the fault schedule and transient coin")
	deadlineUS := flag.Int64("deadline-us", 0, "per-request virtual deadline in us (0 = none)")
	streamsOn := flag.Bool("streams", false, "enable per-stream index-cache apportionment on every shard (POD / Select-Dedupe; needs a stream-tagged workload)")
	streamProfile := flag.String("stream-profile", "", "adversarial multi-tenant workload: adversarial (anti-phase burst tenants) or scan (plus a churning scan); requires -streams, replaces -trace")
	bgDedup := flag.Bool("bgdedup", false, "attach the idle-aware background dedup scanner to every shard (POD / Select-Dedupe only)")
	bgRate := flag.Int64("bgdedup-rate", 0, "background scanner budget, 4 KiB blocks per simulated second (0 = default)")
	bgExpect := flag.Bool("bgdedup-expect-reclaim", false, "fail the run unless the background scanner reclaimed at least one block")
	gfp := flag.Bool("globalfp", false, "enable the global fingerprint tier: async cross-shard dedup recovery (implies -bgdedup; needs 2-64 shards)")
	gfpQueue := flag.Int("globalfp-queue", 0, "per-partition advertisement queue capacity (0 = default)")
	gfpRate := flag.Int("globalfp-rate", 0, "remap folds the tier applies per shard per engine tick (0 = default)")
	gfpExpect := flag.Bool("globalfp-expect-remaps", false, "fail the run unless the tier applied at least one cross-shard remap")
	chunking := flag.String("chunking", "fixed4k", "per-shard chunker: fixed4k, gear, or seqcdc (CDC needs a dedup scheme; incompatible with -chaos)")
	crashShard := flag.Int("crash-shard", -1, "shard to crash mid-run (-1 = last shard; requires -chaos shardcrash)")
	crashAtUS := flag.Int64("crash-at-us", 0, "virtual crash time in us (0 = horizon/3; requires -chaos shardcrash)")
	recoverAtUS := flag.Int64("recover-at-us", 0, "virtual rejoin time in us (0 = 2/3 horizon; requires -chaos shardcrash)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: podload [-trace mixed|web-vm|homes|mail] [-scale f] [-scheme s] [-shards n]\n")
		fmt.Fprintf(os.Stderr, "               [-clients n] [-rate r] [-requests n] [-write-ratio f] [-queue n]\n")
		fmt.Fprintf(os.Stderr, "               [-batch n] [-policy block|shed] [-route-chunks n] [-submit-batch n]\n")
		fmt.Fprintf(os.Stderr, "               [-cpuprofile f] [-bench-json f] [-bench-label s]\n")
		fmt.Fprintf(os.Stderr, "               [-metrics-out f] [-metrics-prom f] [-trace-sample n]\n")
		fmt.Fprintf(os.Stderr, "               [-chunking fixed4k|gear|seqcdc] [-streams] [-stream-profile adversarial|scan]\n")
		fmt.Fprintf(os.Stderr, "               [-chaos scenario] [-chaos-seed n] [-deadline-us n]\n")
		fmt.Fprintf(os.Stderr, "               [-bgdedup] [-bgdedup-rate n] [-bgdedup-expect-reclaim]\n")
		fmt.Fprintf(os.Stderr, "               [-globalfp] [-globalfp-queue n] [-globalfp-rate n] [-globalfp-expect-remaps]\n")
		fmt.Fprintf(os.Stderr, "               [-crash-shard n] [-crash-at-us n] [-recover-at-us n]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "podload: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	policy, err := server.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "podload: %v\n", err)
		os.Exit(2)
	}
	schemeName, err := pod.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "podload: %v\n", err)
		os.Exit(2)
	}
	// Chunker validation fails fast: an unknown name must exit non-zero
	// before any trace generation or shard construction.
	chunkAlgo, err := cdc.ParseAlgo(*chunking)
	if err != nil {
		fmt.Fprintf(os.Stderr, "podload: %v\n", err)
		os.Exit(2)
	}
	if chunkAlgo != cdc.Fixed4K && schemeName == pod.SchemeNative {
		fmt.Fprintf(os.Stderr, "podload: -chunking %s needs a deduplicating scheme; Native never consults chunk content\n", chunkAlgo)
		os.Exit(2)
	}
	if *traceSample < 0 {
		fmt.Fprintf(os.Stderr, "podload: -trace-sample must be >= 0 (got %d)\n", *traceSample)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "podload: -shards must be at least 1")
		os.Exit(2)
	}
	if procs := runtime.GOMAXPROCS(0); *shards > procs {
		// still correct — simulated queueing runs in virtual time, so the
		// queued-vs-served accounting is unaffected — but the extra shard
		// workers time-share CPUs, so wall-clock throughput stops scaling
		fmt.Fprintf(os.Stderr, "podload: warning: %d shards exceed GOMAXPROCS=%d; wall-clock throughput will not scale past %d workers (virtual-time queueing and latency numbers remain exact)\n",
			*shards, procs, procs)
	}
	if *clients == 0 || *clients > *shards {
		*clients = *shards
	}
	if *submitBatch < 1 {
		fmt.Fprintln(os.Stderr, "podload: -submit-batch must be at least 1")
		os.Exit(2)
	}
	if *deadlineUS < 0 {
		fmt.Fprintln(os.Stderr, "podload: -deadline-us must be >= 0")
		os.Exit(2)
	}
	if *chaosName != "" {
		// validate the scenario name up front (dims are per shard later)
		if _, err := chaos.Build(*chaosName, 4, 1024, 1000, 1); err != nil {
			fmt.Fprintf(os.Stderr, "podload: %v\n", err)
			os.Exit(2)
		}
		if chunkAlgo != cdc.Fixed4K {
			// the read-back oracle compares each LBA against the exact
			// ContentID the trace wrote there; CDC remaps slot contents
			// to derived chunk IDs, so the oracle cannot apply
			fmt.Fprintln(os.Stderr, "podload: -chunking is incompatible with -chaos (the read-back oracle checks trace ContentIDs per LBA)")
			os.Exit(2)
		}
		if *rate <= 0 {
			fmt.Fprintln(os.Stderr, "podload: -chaos requires -rate > 0 (faults are placed within the arrival horizon)")
			os.Exit(2)
		}
		if *chaosName == "bgdedup" {
			// the scenario exists to exercise the scanner under faults
			*bgDedup = true
		}
		if *chaosName == "globalfp" {
			// the scenario exists to race cross-shard remaps with faults
			*gfp = true
		}
		if *chaosName == "shardcrash" {
			// the scenario crashes one shard mid-run with the tier live;
			// the surviving shards are the point, so one shard is useless
			if *shards < 2 {
				fmt.Fprintln(os.Stderr, "podload: -chaos shardcrash requires at least 2 shards (the surviving shards must keep serving)")
				os.Exit(2)
			}
			*gfp = true
		}
	}
	// Crash-flag validation fails fast: a bad shard index or an inverted
	// crash/recover window would otherwise surface mid-replay as a
	// confusing CrashShard error (or a crash that never fires).
	if (*crashShard != -1 || *crashAtUS != 0 || *recoverAtUS != 0) && *chaosName != "shardcrash" {
		fmt.Fprintln(os.Stderr, "podload: -crash-shard/-crash-at-us/-recover-at-us require -chaos shardcrash")
		os.Exit(2)
	}
	if *chaosName == "shardcrash" {
		if *crashShard != -1 && (*crashShard < 0 || *crashShard >= *shards) {
			fmt.Fprintf(os.Stderr, "podload: -crash-shard %d out of range [0, %d)\n", *crashShard, *shards)
			os.Exit(2)
		}
		if *crashAtUS < 0 || *recoverAtUS < 0 {
			fmt.Fprintln(os.Stderr, "podload: -crash-at-us and -recover-at-us must be >= 0")
			os.Exit(2)
		}
		if *crashAtUS != 0 && *recoverAtUS != 0 && *recoverAtUS <= *crashAtUS {
			fmt.Fprintf(os.Stderr, "podload: -recover-at-us %d must be after -crash-at-us %d\n", *recoverAtUS, *crashAtUS)
			os.Exit(2)
		}
	}
	if *gfpQueue < 0 {
		fmt.Fprintln(os.Stderr, "podload: -globalfp-queue must be >= 0")
		os.Exit(2)
	}
	if *gfpRate < 0 {
		fmt.Fprintln(os.Stderr, "podload: -globalfp-rate must be >= 0")
		os.Exit(2)
	}
	if (*gfpQueue > 0 || *gfpRate > 0 || *gfpExpect) && !*gfp {
		fmt.Fprintln(os.Stderr, "podload: -globalfp-queue/-globalfp-rate/-globalfp-expect-remaps require -globalfp")
		os.Exit(2)
	}
	if *gfp {
		if *shards < 2 {
			fmt.Fprintln(os.Stderr, "podload: -globalfp requires at least 2 shards (the tier recovers cross-shard dedup losses; one shard has none)")
			os.Exit(2)
		}
		if *shards > 64 {
			fmt.Fprintln(os.Stderr, "podload: -globalfp supports at most 64 shards")
			os.Exit(2)
		}
		// the tier's shard agents wrap the out-of-line scanner
		*bgDedup = true
	}
	if *bgExpect && !*bgDedup {
		fmt.Fprintln(os.Stderr, "podload: -bgdedup-expect-reclaim requires -bgdedup")
		os.Exit(2)
	}
	if *bgDedup && schemeName != pod.SchemePOD && schemeName != pod.SchemeSelectDedupe {
		fmt.Fprintf(os.Stderr, "podload: -bgdedup supports schemes %s and %s only (got %s)\n",
			pod.SchemePOD, pod.SchemeSelectDedupe, schemeName)
		os.Exit(2)
	}
	// Stream-mode validation fails fast, before any trace is generated:
	// a bad combination would otherwise only surface as an all-zero
	// verdict block minutes into a replay.
	switch *streamProfile {
	case "", "adversarial", "scan":
	default:
		fmt.Fprintf(os.Stderr, "podload: unknown -stream-profile %q (want adversarial or scan)\n", *streamProfile)
		os.Exit(2)
	}
	if *streamProfile != "" && !*streamsOn {
		fmt.Fprintln(os.Stderr, "podload: -stream-profile requires -streams")
		os.Exit(2)
	}
	if *streamsOn {
		if schemeName != pod.SchemePOD && schemeName != pod.SchemeSelectDedupe {
			fmt.Fprintf(os.Stderr, "podload: -streams supports schemes %s and %s only (got %s)\n",
				pod.SchemePOD, pod.SchemeSelectDedupe, schemeName)
			os.Exit(2)
		}
		if *streamProfile == "" && *traceName != "mixed" {
			fmt.Fprintf(os.Stderr, "podload: -streams needs a stream-tagged workload; trace %q is untagged (use -trace mixed or -stream-profile)\n", *traceName)
			os.Exit(2)
		}
		if *streamProfile != "" && *writeRatio >= 0 {
			fmt.Fprintln(os.Stderr, "podload: -write-ratio applies to named traces, not -stream-profile")
			os.Exit(2)
		}
	}

	// --- workload ---
	var (
		tr   *trace.Trace
		prof workload.Profile
	)
	switch {
	case *streamProfile != "":
		var dims workload.MixedDims
		if *streamProfile == "adversarial" {
			tr, _, dims = workload.AdversarialMix(*scale)
		} else {
			tr, _, dims = workload.AdversarialScanMix(*scale)
		}
		prof = workload.Profile{Name: tr.Name, FootprintChunks: dims.FootprintChunks, MemoryBytes: dims.MemoryBytes}
	case *traceName == "mixed":
		if *writeRatio >= 0 {
			fmt.Fprintln(os.Stderr, "podload: -write-ratio applies to named traces, not mixed")
			os.Exit(2)
		}
		var dims workload.MixedDims
		tr, _, dims = workload.MixedTrace(*scale)
		prof = workload.Profile{Name: "mixed", FootprintChunks: dims.FootprintChunks, MemoryBytes: dims.MemoryBytes}
	default:
		p, ok := workload.ByName(*traceName)
		if !ok {
			fmt.Fprintf(os.Stderr, "podload: unknown trace %q (want mixed, web-vm, homes, or mail)\n", *traceName)
			os.Exit(2)
		}
		if *writeRatio >= 0 {
			if *writeRatio > 1 {
				fmt.Fprintln(os.Stderr, "podload: -write-ratio must be in [0,1]")
				os.Exit(2)
			}
			p.WriteRatio = *writeRatio
			p.PhaseLen = 0 // flat mix: the burst phases would override the ratio
		}
		tr, _ = workload.Generate(p, *scale)
		prof = p
	}
	if *requests > 0 && *requests < len(tr.Requests) {
		tr.Requests = tr.Requests[:*requests]
	}
	n := len(tr.Requests)
	if n == 0 {
		fmt.Fprintln(os.Stderr, "podload: empty trace")
		os.Exit(1)
	}

	// open-loop arrival schedule: fixed before the run, rate in
	// requests per *simulated* second
	arrivals := make([]sim.Time, n)
	if *rate > 0 {
		for i := range arrivals {
			arrivals[i] = sim.Time(float64(i) * 1e6 / *rate)
		}
	}
	var horizon sim.Time // arrival-schedule span, used to place faults
	if *rate > 0 {
		horizon = sim.Time(float64(n) * 1e6 / *rate)
	}
	// Shard-outage window defaults resolve against the horizon: crash a
	// third in, rejoin at two thirds, so the run exercises all three
	// regimes (healthy, degraded, recovered) in one trace.
	var crashAt, recoverAt sim.Time
	if *chaosName == "shardcrash" {
		if *crashShard == -1 {
			*crashShard = *shards - 1
		}
		crashAt = sim.Time(*crashAtUS)
		if crashAt == 0 {
			crashAt = horizon / 3
		}
		recoverAt = sim.Time(*recoverAtUS)
		if recoverAt == 0 {
			recoverAt = horizon * 2 / 3
		}
		if recoverAt <= crashAt {
			fmt.Fprintf(os.Stderr, "podload: shard rejoin at %v is not after the crash at %v (defaults resolve against the %v horizon)\n",
				recoverAt, crashAt, horizon)
			os.Exit(2)
		}
	}

	// --- server over per-shard engines ---
	var oracle *chaos.Oracle
	srv, err := server.New(server.Config{
		Shards:      *shards,
		GranChunks:  *routeChunks,
		QueueDepth:  *queue,
		MaxBatch:    *batch,
		Policy:      policy,
		Timing:      server.Queued,
		TraceSample: *traceSample,
		DeadlineUS:  *deadlineUS,
		RetrySeed:   *chaosSeed,
		GlobalFP:    *gfp,
		GlobalFPParams: globalfp.Params{
			QueueLen:     *gfpQueue,
			FoldsPerTick: *gfpRate,
		},
		NewEngine: func(shard int) engine.Engine {
			cfg := experiments.BuildConfig(prof, *scale)
			cfg.Chunking = cdc.Params{Algo: chunkAlgo}
			if *streamsOn {
				cfg.Streams = engine.StreamParams{Enabled: true}
			}
			if *streamProfile != "" {
				// the adversarial pools are tuned against the profile's
				// DRAM budget; scaling it with the trace would break the
				// pool / index-partition ratios the mix is built around
				cfg.MemoryBytes = prof.MemoryBytes
			}
			if *chaosName != "" {
				// same fault plan against every shard's array; the
				// transient coin varies per shard via the seed
				sched, berr := chaos.Build(*chaosName, cfg.Array.NumDisks(), cfg.Array.PerDiskBlocks(),
					horizon, *chaosSeed^uint64(shard)*0x9E3779B97F4A7C15)
				if berr != nil {
					return nil // name was validated above; dims must be degenerate
				}
				cfg.Array.SetInjector(fault.NewInjector(sched, cfg.Array.NumDisks()))
			}
			e := experiments.NewEngine(string(schemeName), cfg)
			if *bgDedup {
				// scheme validated above, so Attach cannot fail
				bgdedup.Attach(e, bgdedup.Params{BlocksPerSec: *bgRate})
			}
			return e
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "podload: %v\n", err)
		os.Exit(1)
	}
	if *chaosName != "" {
		oracle = chaos.NewOracle(srv.Shard)
	}

	fmt.Printf("podload: trace=%s scheme=%s shards=%d clients=%d rate=%s requests=%d queue=%d batch=%d policy=%s\n",
		tr.Name, schemeName, *shards, *clients, rateString(*rate), n, *queue, *batch, policy)
	if *streamsOn {
		fmt.Printf("streams: per-stream index-cache apportionment on (dynamic, locality-driven)\n")
	}
	if *chaosName != "" {
		fmt.Printf("chaos: scenario=%s seed=%d horizon=%v deadline=%s\n",
			*chaosName, *chaosSeed, horizon, usString(*deadlineUS))
	}
	if *chaosName == "shardcrash" {
		fmt.Printf("shardcrash: shard=%d crash@%v recover@%v\n", *crashShard, crashAt, recoverAt)
	}

	// --- drive ---
	if *cpuprofile != "" {
		f, perr := os.Create(*cpuprofile)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "podload: %v\n", perr)
			os.Exit(1)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			fmt.Fprintf(os.Stderr, "podload: %v\n", perr)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var track perf.Tracker
	var submitErrs, readFails int64
	var errMu sync.Mutex
	var closeErr error
	// Shard-outage triggers, fired exactly once each (the CAS) by the
	// client that owns the victim shard when that shard's next arrival
	// crosses the threshold. fireRecover pulls the crash in first as a
	// belt-and-braces ordering guard (a stream that skips the whole
	// crash window still produces a well-ordered outage).
	var (
		crashFired, recoverFired atomic.Bool
		recoveredRecords         atomic.Int64
		outageErr                error
	)
	fireCrash := func() {
		if crashFired.CompareAndSwap(false, true) {
			if cerr := srv.CrashShard(*crashShard); cerr != nil {
				errMu.Lock()
				outageErr = cerr
				errMu.Unlock()
			}
		}
	}
	fireRecover := func() {
		fireCrash()
		if recoverFired.CompareAndSwap(false, true) {
			nrec, rerr := srv.RecoverShard(*crashShard)
			if rerr != nil {
				errMu.Lock()
				outageErr = rerr
				errMu.Unlock()
				return
			}
			recoveredRecords.Store(int64(nrec))
		}
	}
	// Pre-partition the trace per client in one routing pass. Each
	// client used to rescan (and re-route) the whole trace to find its
	// requests — an O(clients × n) cost that dominated the submission
	// path at high shard counts. One pass in trace order keeps every
	// shard's arrival stream in schedule order within its owning client.
	parts := make([][]int32, *clients)
	for i := 0; i < n; i++ {
		c := srv.Shard(tr.Requests[i].LBA) % *clients
		parts[c] = append(parts[c], int32(i))
	}
	start := time.Now()
	track.Measure(*benchLabel, func() {
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Open-loop batch submission: requests accumulate into a
				// fixed-capacity batch that SubmitBatch buckets per shard
				// and enqueues with one send per touched shard. The batch
				// never reallocates (flushed exactly at capacity), so the
				// pointers the server retains stay valid; ownership
				// transfers on submit and a fresh batch is allocated.
				var batch []server.Request
				flush := func() bool {
					if len(batch) == 0 {
						return true
					}
					err := srv.SubmitBatch(batch)
					batch = nil
					if err != nil {
						errMu.Lock()
						submitErrs++
						errMu.Unlock()
						return false
					}
					return true
				}
				for _, i := range parts[c] {
					r := &tr.Requests[i]
					// Outage triggers key on the victim shard's own stream:
					// that stream is submitted in order by one client, so
					// the window covers a deterministic slice of the
					// shard's requests (pre-crash served and journaled,
					// in-window refused, post-rejoin served) regardless of
					// how far the other clients race ahead in wall time.
					if *chaosName == "shardcrash" && srv.Shard(r.LBA) == *crashShard {
						switch t := arrivals[i]; {
						case t >= recoverAt:
							fireRecover()
						case t >= crashAt:
							fireCrash()
						}
					}
					req := server.Request{Time: int64(arrivals[i]), Op: r.Op, LBA: r.LBA, Stream: r.Stream}
					if r.Op == trace.Read {
						req.Chunks = r.N
					} else {
						req.Content = r.Content
					}
					var err error
					if oracle == nil && *submitBatch > 1 {
						if batch == nil {
							batch = make([]server.Request, 0, *submitBatch)
						}
						batch = append(batch, req)
						if len(batch) == cap(batch) && !flush() {
							return
						}
						continue
					}
					if oracle == nil {
						err = srv.Submit(&req)
					} else {
						// closed-loop: the oracle needs each outcome
						var res server.Result
						res, err = srv.Do(&req)
						if err == nil {
							switch {
							case r.Op == trace.Write && res.Err == nil:
								oracle.RecordWrite(&req, res.Shard)
							case r.Op == trace.Write:
								// the engine was touched iff any attempt
								// ran (breaker/deadline refusals consume
								// no service time)
								oracle.RecordFailedWrite(&req, res.Shard,
									res.Retries > 0 || res.Service > 0)
							case res.Err != nil:
								atomic.AddInt64(&readFails, 1)
							}
						}
					}
					if err == server.ErrShed {
						continue // counted by the server
					}
					if err != nil {
						errMu.Lock()
						submitErrs++
						errMu.Unlock()
						return
					}
				}
				flush()
			}(c)
		}
		wg.Wait()
		if *chaosName == "shardcrash" && crashFired.Load() {
			// backstop: a trace whose arrivals never cross the rejoin
			// threshold (or a racing trigger that recovered a not-yet-
			// down shard) must still rejoin before Close, so settlement
			// and the cluster-wide audit see a whole cluster
			if len(srv.DownShards()) > 0 {
				recoverFired.Store(true)
				nrec, rerr := srv.RecoverShard(*crashShard)
				if rerr != nil {
					errMu.Lock()
					outageErr = rerr
					errMu.Unlock()
				} else {
					recoveredRecords.Store(int64(nrec))
				}
			}
		}
		closeErr = srv.Close()
	})
	wall := time.Since(start)

	// --- report ---
	snap := srv.Stats()
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "podload: %v\n", closeErr)
		os.Exit(1)
	}
	if outageErr != nil {
		fmt.Fprintf(os.Stderr, "podload: shard outage: %v\n", outageErr)
		os.Exit(1)
	}
	if submitErrs > 0 {
		fmt.Fprintf(os.Stderr, "podload: %d clients aborted on submission errors\n", submitErrs)
		os.Exit(1)
	}
	if snap.Completed == 0 {
		fmt.Fprintln(os.Stderr, "podload: zero completed requests")
		os.Exit(1)
	}

	wallRPS := float64(snap.Completed) / wall.Seconds()
	simTput := snap.Throughput()
	p50 := snap.Latency.Percentile(50)
	p95 := snap.Latency.Percentile(95)
	p99 := snap.Latency.Percentile(99)

	fmt.Printf("completed %d of %d requests (%d shed) in %v wall (%.0f req/s wall)\n",
		snap.Completed, n, snap.ShedCount, wall.Round(time.Millisecond), wallRPS)
	fmt.Printf("simulated: window %v, aggregate throughput %.1f req/s\n",
		snap.LastComplete.Sub(snap.FirstArrival), simTput)
	fmt.Printf("latency (sojourn): p50 %.2fms p95 %.2fms p99 %.2fms mean %.2fms max %.2fms\n",
		p50/1000, p95/1000, p99/1000, snap.Latency.Mean()/1000, float64(snap.Latency.Max())/1000)
	fmt.Printf("dedup: %.1f%% writes removed, %.1f%% chunks deduped, %.1f%% read cache hits, %d blocks used\n",
		snap.Engine.WriteRemovalPct(), snap.Engine.DedupRatioPct(), snap.Engine.CacheHitPct(), snap.UsedBlocks)
	lo, hi := snap.PerShard[0].Completed, snap.PerShard[0].Completed
	for _, ps := range snap.PerShard {
		if ps.Completed < lo {
			lo = ps.Completed
		}
		if ps.Completed > hi {
			hi = ps.Completed
		}
	}
	fmt.Printf("shards: %d, completed/shard min %d max %d\n", snap.Shards, lo, hi)

	// --- per-stream verdict ---
	// Raw per-stream counters sum correctly across the merged shard
	// snapshots; the removal percentage is recomputed from the merged
	// counts (the per-shard pct gauge does not survive summation).
	// Quotas likewise sum: the line reports the tenant's total index
	// entries across every shard's partition.
	if *streamsOn {
		g := snap.Metrics.Gauges
		tagged := int64(0)
		for s := 0; s < int(trace.MaxStreams); s++ {
			l := strconv.Itoa(s)
			writes, okW := g[metrics.Labeled("stream_writes", "stream", l)]
			quota, okQ := g[metrics.Labeled("icache_stream_quota", "stream", l)]
			if !okW && !okQ {
				continue
			}
			removed := g[metrics.Labeled("stream_writes_removed", "stream", l)]
			pct := 0.0
			if writes > 0 {
				pct = 100 * float64(removed) / float64(writes)
			}
			fmt.Printf("stream %d: writes=%d removed=%d (%.1f%%) index-quota=%d entries\n",
				s, writes, removed, pct, quota)
			tagged += writes
		}
		if tagged == 0 {
			fmt.Fprintln(os.Stderr, "podload: -streams: no stream-tagged writes reached any engine")
			os.Exit(1)
		}
	}

	// --- background-work verdict ---
	// Unlabeled substrate gauges sum across shards in the merged snapshot.
	if *bgDedup {
		g := snap.Metrics.Gauges
		fmt.Printf("alloc: used=%d blocks, free extents=%d, largest free=%d\n",
			g["alloc_used_blocks"], g["alloc_free_extents"], g["alloc_largest_free"])
		fmt.Printf("bgdedup: steps=%d wraps=%d scan-ios=%d scanned=%d dups=%d remapped=%d reclaimed=%d seq-swaps=%d\n",
			g["bgdedup_steps"], g["bgdedup_wraps"], g["bgdedup_scan_ios"],
			g["bgdedup_scanned_blocks"], g["bgdedup_duplicate_blocks"],
			g["bgdedup_remapped_lbas"], g["bgdedup_reclaimed_blocks"], g["bgdedup_seq_swaps"])
		fmt.Printf("bgdedup: paused busy=%d load=%d, skipped extents=%d\n",
			g["bgdedup_paused_busy"], g["bgdedup_paused_load"], g["bgdedup_skipped_extents"])
		if *bgExpect && g["bgdedup_reclaimed_blocks"] == 0 {
			fmt.Fprintln(os.Stderr, "podload: -bgdedup-expect-reclaim: scanner reclaimed zero blocks")
			os.Exit(1)
		}
	}
	if *gfp {
		g := snap.Metrics.Gauges
		fmt.Printf("globalfp: ads queued=%d dropped=%d | dups detected=%d hints broadcast=%d installed=%d | table entries=%d fixes=%d\n",
			g["globalfp_ads_queued"], g["globalfp_ads_dropped"],
			g["globalfp_dups_detected"], g["globalfp_hints_broadcast"], g["globalfp_hints_installed"],
			g["globalfp_table_entries"], g["globalfp_table_fixes"])
		fmt.Printf("globalfp: remaps applied=%d rejected=%d reclaimed=%d blocks | pins granted=%d rejects=%d | recalls %d sent %d done\n",
			g["globalfp_remaps_applied"], g["globalfp_remaps_rejected"], g["globalfp_reclaimed_blocks"],
			g["globalfp_pins_granted"], g["globalfp_pin_rejects"],
			g["globalfp_recalls_sent"], g["globalfp_recalls_done"])
		fmt.Printf("globalfp: hint tables %d KiB | hits=%d of %d installed (%.1f%%) overwrites=%d\n",
			g["globalfp_hint_table_bytes"]>>10, g["globalfp_hint_hits"], g["globalfp_hints_installed"],
			100*float64(g["globalfp_hint_hits"])/float64(max(1, g["globalfp_hints_installed"])),
			g["globalfp_hint_overwrites"])
		fmt.Printf("globalfp: remote inline dedupes=%d remote reads=%d\n",
			snap.Engine.RemoteDeduped, snap.Engine.RemoteReads)
		if *gfpExpect && g["globalfp_remaps_applied"] == 0 && snap.Engine.RemoteDeduped == 0 {
			fmt.Fprintln(os.Stderr, "podload: -globalfp-expect-remaps: tier neither folded a duplicate nor enabled a remote inline dedupe")
			os.Exit(1)
		}
		// The cross-shard audit: every remote reference targets a live,
		// correctly pinned canonical. Runs post-Close, so settlement has
		// quiesced the protocol.
		if cerr := srv.CheckConsistency(); cerr != nil {
			fmt.Fprintf(os.Stderr, "podload: globalfp consistency: %v\n", cerr)
			os.Exit(1)
		}
		fmt.Println("globalfp: cross-shard consistency PASS")
	}

	// --- shard-outage verdict ---
	// Epochs are shard-labeled (one fencing generation per shard); the
	// stale/down drop counters and recall timeouts are unlabeled and sum
	// across shards in the merged snapshot.
	if *chaosName == "shardcrash" {
		g := snap.Metrics.Gauges
		epochs := make([]string, snap.Shards)
		var refused int64
		for k := 0; k < snap.Shards; k++ {
			l := strconv.Itoa(k)
			epochs[k] = strconv.FormatInt(g[metrics.Labeled("globalfp_epoch", "shard", l)], 10)
			refused += g[metrics.Labeled("server_shard_down_refused", "shard", l)]
		}
		fmt.Printf("shardcrash: shard %d crashed and rejoined, %d journal records replayed, %d requests refused while down\n",
			*crashShard, recoveredRecords.Load(), refused)
		fmt.Printf("shardcrash: epochs=[%s] stale-dropped=%d down-dropped=%d recall-timeouts=%d\n",
			strings.Join(epochs, " "), g["globalfp_stale_dropped"], g["globalfp_down_dropped"], g["globalfp_recall_timeouts"])
		if !crashFired.Load() {
			fmt.Fprintln(os.Stderr, "podload: shardcrash: the crash threshold was never reached (trace too short for the window?)")
			os.Exit(1)
		}
		if down := srv.DownShards(); len(down) > 0 {
			fmt.Fprintf(os.Stderr, "podload: shardcrash: shards %v still down after the run\n", down)
			os.Exit(1)
		}
		fmt.Println("shardcrash: outage window closed, cluster whole")
	}

	// --- chaos verdict ---
	if oracle != nil {
		g := snap.Metrics.Gauges
		sumShard := func(name string) int64 {
			var t int64
			for k := 0; k < snap.Shards; k++ {
				t += g[metrics.Labeled(name, "shard", strconv.Itoa(k))]
			}
			return t
		}
		fmt.Printf("chaos faults: injected transient=%d sector=%d diskfail=%d slow=%d | healed ranges=%d\n",
			g["fault_injected_transient"], g["fault_injected_sector"],
			g["fault_injected_disk_fail"], g["fault_slow_accesses"], g["fault_healed_ranges"])
		fmt.Printf("chaos raid: degraded reads=%d sector repairs=%d fail events=%d rebuild ios=%d rebuilds done=%d data loss=%d\n",
			g["raid_degraded_reads"], g["raid_sector_repairs"], g["raid_fail_events"],
			g["raid_rebuild_ios"], g["raid_rebuilds_done"], g["raid_data_loss_errors"])
		fmt.Printf("chaos server: retries=%d failed=%d deadline=%d breaker opens=%d breaker shed=%d read failures=%d\n",
			sumShard("server_retries"), sumShard("server_failed"), sumShard("server_deadline_exceeded"),
			sumShard("server_breaker_opens"), sumShard("server_breaker_shed"), atomic.LoadInt64(&readFails))
		acked, failedW, indet, spilled := oracle.Stats()
		viol, checked := oracle.Check(srv.ReadContent)
		fmt.Printf("chaos oracle: %d acked writes, %d failed writes, %d indeterminate blocks, %d spilled chunks, %d blocks verified\n",
			acked, failedW, indet, spilled, checked)
		if len(viol) > 0 {
			for i, v := range viol {
				if i >= 10 {
					fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(viol)-10)
					break
				}
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			fmt.Fprintf(os.Stderr, "podload: chaos oracle: %d integrity violations\n", len(viol))
			os.Exit(1)
		}
		fmt.Println("chaos oracle: PASS")

		// With the scanner armed, additionally prove the interrupted
		// pass is crash-consistent: power-fail the node, rebuild every
		// shard from its NVRAM journal, re-run the oracle against the
		// recovered state, and sweep each shard's map/allocator/store for
		// leaked or double-used extents.
		if *bgDedup {
			rec, rerr := srv.CrashAndRecover()
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "podload: crash recovery: %v\n", rerr)
				os.Exit(1)
			}
			viol2, checked2 := oracle.Check(srv.ReadContent)
			if len(viol2) > 0 {
				for i, v := range viol2 {
					if i >= 10 {
						fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(viol2)-10)
						break
					}
					fmt.Fprintf(os.Stderr, "  %s\n", v)
				}
				fmt.Fprintf(os.Stderr, "podload: chaos oracle after recovery: %d integrity violations\n", len(viol2))
				os.Exit(1)
			}
			for k := 0; k < snap.Shards; k++ {
				var cerr error
				srv.WithEngine(k, func(e engine.Engine) {
					if be, ok := e.(interface{ Base() *engine.Base }); ok {
						cerr = be.Base().CheckConsistency()
					}
				})
				if cerr != nil {
					fmt.Fprintf(os.Stderr, "podload: shard %d inconsistent after recovery: %v\n", k, cerr)
					os.Exit(1)
				}
			}
			if *gfp {
				// re-audit cross-shard references against the recovered
				// pin state (ref pins only; hinted pins are volatile)
				if cerr := srv.CheckConsistency(); cerr != nil {
					fmt.Fprintf(os.Stderr, "podload: globalfp consistency after recovery: %v\n", cerr)
					os.Exit(1)
				}
			}
			fmt.Printf("chaos recovery: %d journal records replayed, %d blocks re-verified, consistency PASS\n",
				rec, checked2)
		}
	}

	// --- metrics ---
	m := snap.Metrics
	m.Traces = srv.Traces()
	// Per-shard queue wait vs. service time, from the shard-labeled
	// histograms the server publishes into each shard engine's registry.
	for k := 0; k < snap.Shards; k++ {
		label := strconv.Itoa(k)
		qw := m.Histograms[metrics.Labeled("server_queue_wait_us", "shard", label)]
		svc := m.Histograms[metrics.Labeled("server_service_us", "shard", label)]
		if qw == nil || svc == nil {
			continue
		}
		fmt.Printf("shard %d: queue-wait p50 %.2fms p95 %.2fms | service p50 %.2fms p95 %.2fms (%d served)\n",
			k, qw.Percentile(50)/1000, qw.Percentile(95)/1000,
			svc.Percentile(50)/1000, svc.Percentile(95)/1000, svc.N)
	}
	if len(m.Traces) > 0 {
		t := m.Traces[0]
		fmt.Printf("traces: %d sampled (every %d per shard); first: shard=%d op=%v lba=%d chunks=%d sojourn=%dus phases=%v\n",
			len(m.Traces), *traceSample, t.Shard, t.Op, t.LBA, t.Chunks, t.Sojourn, t.Phases)
	}
	if *metricsOut != "" {
		if err := writeSnapshot(*metricsOut, m.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "podload: %v\n", err)
			os.Exit(1)
		}
		// Smoke assertion: an instrumented run must have recorded
		// latency samples somewhere, or the pipeline is dead.
		samples := int64(0)
		for _, h := range m.Histograms {
			samples += h.N
		}
		if samples == 0 {
			fmt.Fprintln(os.Stderr, "podload: metrics snapshot has no histogram samples")
			os.Exit(1)
		}
		fmt.Printf("metrics: %d series (%d histogram samples) -> %s\n", len(m.Histograms)+len(m.Gauges)+len(m.Counters), samples, *metricsOut)
	}
	if *metricsProm != "" {
		if err := writeSnapshot(*metricsProm, m.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "podload: %v\n", err)
			os.Exit(1)
		}
	}

	if *benchJSON != "" {
		for k, v := range map[string]float64{
			"shards":             float64(*shards),
			"clients":            float64(*clients),
			"rate_rps":           *rate,
			"completed":          float64(snap.Completed),
			"shed":               float64(snap.ShedCount),
			"throughput_sim":     simTput,
			"throughput_wall":    wallRPS,
			"p50_sojourn_us":     p50,
			"p95_sojourn_us":     p95,
			"p99_sojourn_us":     p99,
			"mean_sojourn_us":    snap.Latency.Mean(),
			"gomaxprocs_value":   float64(runtime.GOMAXPROCS(0)),
			"writes_removed_pct": snap.Engine.WriteRemovalPct(),
		} {
			track.Annotate(k, v)
		}
		// Merge rather than overwrite: a shard sweep appends one
		// entry per run (named by -bench-label) to the trajectory
		// podbench wrote, building the flood-capacity curve in place.
		if err := track.MergeJSON(*benchJSON, *benchLabel, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "podload: %v\n", err)
			os.Exit(1)
		}
	}
}

func rateString(r float64) string {
	if r <= 0 {
		return "flood"
	}
	return fmt.Sprintf("%.0f/s", r)
}

func usString(us int64) string {
	if us <= 0 {
		return "off"
	}
	return fmt.Sprintf("%dus", us)
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
