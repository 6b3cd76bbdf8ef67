// Package replay drives engines with traces and collects the
// measurements the experiments report. Individual replays are
// single-threaded (virtual time must advance deterministically);
// independent (engine, trace) combinations run in parallel, on
// goroutines RunAll starts for one batch and joins before it returns.
package replay

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// traceRingCap bounds sampled traces kept per replay: newest win, like
// the serving layer's per-shard rings.
const traceRingCap = 256

// Flusher is implemented by engines with background work (the
// post-processing scanner); Run drains it after the last request so
// end-of-replay capacity reflects a completed pass.
type Flusher interface {
	Flush(now sim.Time)
}

// Releaser is implemented by engines whose substrates draw on pooled
// resources (the content model's page arenas). runJob invokes it after
// the replay's result has been extracted — the engine never escapes a
// RunAll job, so its arenas can be recycled immediately. Callers of the
// serial Run keep their engine and must release (or not) themselves.
type Releaser interface {
	Release()
}

// Result summarizes one replay.
type Result struct {
	Engine string
	Trace  string

	Stats      *engine.Stats // measured portion only (post warm-up)
	UsedBlocks uint64        // physical occupancy at end of replay

	// convenience aggregates (µs)
	MeanRT, MeanReadRT, MeanWriteRT float64
	P95ReadRT, P95WriteRT           float64

	// Metrics is the engine's registry snapshot over the measured
	// portion (the registry is reset at the warm-up boundary alongside
	// Stats); its Traces field holds the sampled request timelines when
	// the job asked for them (Job.TraceEvery).
	Metrics *metrics.Snapshot

	// Err is set when the replay did not complete; every other field
	// is zero. A write the array had no space for (engine.ErrNoSpace)
	// ends the replay, since what follows would measure a full array.
	// RunAll also converts panics into errors so one corrupt
	// combination doesn't take down the batch (and with it the results
	// of every job queued behind it).
	Err error
}

// Run replays tr against e, excluding the first warmup requests from
// measurement, and returns the result. Requests must be time-ordered;
// Run panics otherwise (a malformed trace would silently corrupt every
// downstream number).
func Run(e engine.Engine, tr *trace.Trace, warmup int) *Result {
	return run(e, tr, warmup, 0, nil)
}

// RunObserved is Run with a per-request callback receiving the request
// index, the request, and its simulated response time in microseconds
// (for latency logging and custom analyses).
func RunObserved(e engine.Engine, tr *trace.Trace, warmup int, observe func(int, *trace.Request, int64)) *Result {
	return run(e, tr, warmup, 0, observe)
}

// run is the shared replay loop. traceEvery > 0 samples every nth
// measured request into the result's Metrics.Traces with its full
// per-phase timeline (at most traceRingCap kept, newest win).
func run(e engine.Engine, tr *trace.Trace, warmup, traceEvery int, observe func(int, *trace.Request, int64)) *Result {
	var last int64 = -1
	var ring *metrics.TraceRing
	if traceEvery > 0 {
		ring = metrics.NewTraceRing(traceRingCap)
	}
	sampled := int64(0)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if int64(r.Time) < last {
			panic(fmt.Sprintf("replay: trace %q not time-ordered at request %d", tr.Name, i))
		}
		last = int64(r.Time)
		if i == warmup {
			e.Stats().Reset()
			e.Metrics().Reset()
		}
		// Replay has no retry layer: a request the stack could not
		// absorb is counted (engine Stats track Write/ReadErrors) and
		// the replay moves on — fault experiments that need retry
		// semantics run through internal/server instead.
		var rt sim.Duration
		if r.Op == trace.Write {
			var err error
			if rt, err = e.Write(r); errors.Is(err, engine.ErrNoSpace) {
				return &Result{Engine: e.Name(), Trace: tr.Name,
					Err: fmt.Errorf("replay: %s, request %d (%d chunks at lba %d): %w", tr.Name, i, r.N, r.LBA, err)}
			}
		} else {
			rt, _ = e.Read(r)
		}
		if ring != nil && i >= warmup {
			sampled++
			if sampled%int64(traceEvery) == 0 {
				// replay is unqueued: arrival == start, sojourn == service
				ring.Add(metrics.TraceRecord{
					Seq: int64(i), Op: r.Op.String(), LBA: r.LBA, Chunks: r.N,
					Arrival: int64(r.Time), Start: int64(r.Time),
					Complete: int64(r.Time) + int64(rt),
					Service:  int64(rt), Sojourn: int64(rt),
					Phases: e.Metrics().Phases().LastTimeline(),
				})
			}
		}
		if observe != nil {
			observe(i, r, int64(rt))
		}
	}
	if f, ok := e.(Flusher); ok {
		f.Flush(sim.Time(last))
	}
	st := e.Stats()
	m := e.Metrics().Snapshot()
	if ring != nil {
		m.Traces = ring.Drain()
	}
	return &Result{
		Engine:      e.Name(),
		Trace:       tr.Name,
		Stats:       st,
		UsedBlocks:  e.UsedBlocks(),
		MeanRT:      st.TotalRT(),
		MeanReadRT:  st.ReadRT.Mean(),
		MeanWriteRT: st.WriteRT.Mean(),
		P95ReadRT:   st.ReadRT.Percentile(95),
		P95WriteRT:  st.WriteRT.Percentile(95),
		Metrics:     m,
	}
}

// Job is one replay to execute: a factory (each job needs a fresh
// engine over fresh substrates) plus its trace. TraceFn runs on the
// worker executing the job — so trace generation overlaps with other
// jobs' replays instead of serializing in the caller before the batch
// starts.
type Job struct {
	Key     string // caller-chosen identifier
	Factory func() engine.Engine
	TraceFn func() (*trace.Trace, int) // trace + warmup

	// TraceEvery > 0 samples every nth measured request into the
	// result's Metrics.Traces with its per-phase timeline.
	TraceEvery int
}

// runJob executes one job, converting a panic anywhere in trace
// generation, engine construction, or the replay itself into an error
// Result.
func runJob(j Job) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res = &Result{
				Engine: j.Key,
				Err:    fmt.Errorf("replay: job %q panicked: %v\n%s", j.Key, r, debug.Stack()),
			}
		}
	}()
	tr, warmup := j.TraceFn()
	e := j.Factory()
	res = run(e, tr, warmup, j.TraceEvery, nil)
	if r, ok := e.(Releaser); ok {
		r.Release()
	}
	return res
}

// RunAll executes jobs on up to workers goroutines (≤ 0 selects one)
// and returns results in job order. The goroutines start with the call
// and are joined before it returns, so nothing outlives the batch. A
// job that panics yields a Result with Err set; the jobs queued behind
// it still run.
func RunAll(jobs []Job, workers int) []*Result {
	results := make([]*Result, len(jobs))
	workers = min(max(workers, 1), len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				results[i] = runJob(jobs[i])
			}
		}()
	}
	wg.Wait()
	return results
}
