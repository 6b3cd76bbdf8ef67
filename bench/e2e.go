package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// options are the knobs of one workload run.
type options struct {
	seed     int64
	seconds  float64 // how long the timed phase measures
	trace    bool    // per-layer run: traced pass + ladder instead of the end-to-end protocol
	quick    bool    // smoke-test sizes: tiny traces, one set-up, one rep
	procs    int     // GOMAXPROCS
	clients  int     // submitting goroutines of the serve-* workloads
	spansOut string
}

// record is one workload's result.
type record struct {
	Workload  string           `json:"workload"`
	Scale     float64          `json:"scale"`
	Requests  int              `json:"requests"`
	Reps      int              `json:"reps"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// newRecord starts a workload's record with every metric the run will
// report present, in its catalogued unit.
func newRecord(s spec, o options, defs []metricDef) *record {
	rec := &record{Workload: s.name, Scale: s.scaleFor(o), Metrics: map[string]value{}}
	for _, d := range defs {
		rec.Metrics[d.name] = value{Unit: d.unit, N: 1}
	}
	return rec
}

// set stores a measured metric under its catalogued name and unit.
func (r *record) set(name string, v value) {
	old, ok := r.Metrics[name]
	if !ok {
		panic("bench: " + name + " is not in the catalogue")
	}
	v.Unit = old.Unit
	r.Metrics[name] = v
}

// count books one pass: its requests as attempted, its errors as failed.
func (r *record) count(p *outcome, what string) {
	r.Attempted += int64(p.requests)
	r.fail(p.errs, "%s: %d failed operations", what, p.errs)
}

// fail counts n failed operations against the run and says why.
func (r *record) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// collect empties the heap of the last pass's engines outside the
// measured region. Twice, because a sync.Pool keeps its contents through
// one collection: after two, every pass starts from empty page pools,
// as a fresh podsim or podload process does, and allocates the same.
func collect() {
	runtime.GC()
	runtime.GC()
}

func (s spec) scaleFor(o options) float64 {
	if o.quick {
		return s.quick
	}
	return s.scale
}

// setUp is phase (1) of the protocol: generate the trace from the seed,
// build the reference map, and run one discarded pass over the trace's
// warm-up prefix on fresh engines, which grows the heap and faults the
// code in. All of it is set-up time.
func setUp(s spec, o options, rec *record) (*input, driver, error) {
	in, err := buildInput(s, o)
	if err != nil {
		return nil, nil, err
	}
	drv := newDriver(in, o.clients)
	warm := drv.warm()
	rec.count(&warm, "warm-up pass")
	return in, drv, nil
}

// runEndToEnd is the tracing-off protocol: set-up (several times, the
// median is reported), timed passes for the given number of seconds,
// one observed pass that collects exact per-request virtual times, the
// correctness gate before and after crash recovery, and a flood pass
// for simulated capacity.
func runEndToEnd(s spec, o options) (*record, error) {
	rec := newRecord(s, o, endToEnd)
	setups, minReps := 5, 3
	if o.quick {
		setups, minReps = 1, 1
	}

	var (
		in     *input
		drv    driver
		setupS []float64
	)
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		if in, drv, err = setUp(s, o, rec); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	rec.Requests = len(in.tr.Requests)

	// (2) timed passes, tracing off
	var rps, cpuUS, allocB, rssMB []float64
	var ref outcome // the first timed pass: the state every exact pass must reproduce
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(rps) < minReps || time.Now().Before(deadline) {
		collect()
		p := drv.timed(nil)
		// A pass's resident set when it ends is its high-water mark:
		// the runtime hands freed memory back to the OS only slowly.
		// The median over passes is far steadier than the process-wide
		// ru_maxrss, which one badly timed GC cycle decides.
		rssMB = append(rssMB, residentMB())
		n := float64(p.requests)
		rps = append(rps, n/p.use.wall.Seconds())
		cpuUS = append(cpuUS, float64(p.use.cpu.Microseconds())/n)
		allocB = append(allocB, float64(p.use.bytes)/n)
		rec.count(&p, fmt.Sprintf("timed pass %d", len(rps)))
		if len(rps) == 1 {
			ref = p
		} else if s.exact && !p.sameState(&ref) {
			rec.fail(1, "timed pass %d ended in a different simulated state than the first", len(rps))
		}
	}
	rec.Reps = len(rps)

	// (3) observed pass: exact virtual times, then the gate
	smp := &samples{}
	obs, systems := drv.observed(smp)
	rec.count(&obs, "observed pass")
	if s.exact && !obs.sameState(&ref) {
		rec.fail(1, "observed pass ended in a different simulated state than the timed passes")
	}
	lanes := len(systems) // engines run back to back (cdc-shifted: one per chunker)
	checkCounts(rec, in, &obs, lanes)
	gate(rec, in, systems, "after the run")
	for _, sys := range systems {
		rec.Attempted++
		if _, err := sys.CrashAndRecover(); err != nil {
			rec.fail(1, "crash recovery: %v", err)
		}
	}
	gate(rec, in, systems, "after crash recovery")

	// flood pass: every arrival at t=0
	flood := drv.flood()
	rec.count(&flood, "flood pass")

	rec.set("setup_s", medianOf(setupS))
	rec.set("wall_rps", medianOf(rps))
	rec.set("cpu_us_per_req", medianOf(cpuUS))
	rec.set("alloc_bytes_per_req", medianOf(allocB))
	rec.set("peak_rss_mb", medianOf(rssMB))
	w, r, sj := smp.writeUS, smp.readUS, smp.sojournUS
	sort.Float64s(w)
	sort.Float64s(r)
	sort.Float64s(sj)
	rec.set("sim_write_mean_us", single(mean(w), len(w)))
	rec.set("sim_read_mean_us", single(mean(r), len(r)))
	rec.set("sim_write_p99_us", single(percentile(w, 99), len(w)))
	rec.set("sim_read_p99_us", single(percentile(r, 99), len(r)))
	rec.set("sojourn_mean_ms", single(mean(sj)/1000, len(sj)))
	rec.set("sojourn_p99_ms", single(percentile(sj, 99)/1000, len(sj)))
	rec.set("sim_capacity_rps", single(ratio(float64(flood.completed), float64(flood.windowUS)/1e6), int(flood.completed)))
	rec.set("writes_removed_pct", single(pct(float64(obs.st.WritesRemoved), float64(obs.st.Writes)), int(obs.st.Writes)))
	rec.set("stored_per_logical", single(ratio(float64(obs.used), float64(in.distinctWritten)*float64(lanes)), int(in.distinctWritten)))
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// checkCounts holds a pass to the request counts of its trace: every
// request served exactly once, and (cdc-shifted, whose stored ids the
// reference map cannot name) content-defined chunking removing writes.
func checkCounts(rec *record, in *input, o *outcome, lanes int) {
	wantW, wantR := int64(in.writes), int64(in.reads)
	if in.spec.kind != kindServe {
		// replay resets its counters at the warm-up boundary
		wantW, wantR = int64(in.mWrites*lanes), int64(in.mReads*lanes)
	}
	if o.st.Writes != wantW || o.st.Reads != wantR {
		rec.fail(1, "engines counted %d writes and %d reads, the trace holds %d and %d", o.st.Writes, o.st.Reads, wantW, wantR)
	}
	if in.spec.kind == kindCDC && o.st.WritesRemoved == 0 {
		rec.fail(1, "content-defined chunking removed no write on the shifted trace")
	}
}

// gate is the read-back oracle: every block the reference map expects
// must read back with the acknowledged content, and a server's
// cross-shard audit must pass.
func gate(rec *record, in *input, systems []system, when string) {
	for _, sys := range systems {
		checked, bad := in.verify(sys.ReadContent)
		rec.Attempted += int64(checked)
		rec.fail(int64(bad), "%d of %d blocks lost or wrong %s", bad, checked, when)
		if a, ok := sys.(interface{ CheckConsistency() error }); ok {
			rec.Attempted++
			if err := a.CheckConsistency(); err != nil {
				rec.fail(1, "consistency audit %s: %v", when, err)
			}
		}
	}
}
