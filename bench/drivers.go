package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// podEngine is the surface of core.SelectDedupe the benchmark relies
// on beyond engine.Engine: background flush, the substrate handle the
// tier and the scanner attach through, and crash recovery. The traced
// pass's decorator embeds it, so all three forward.
type podEngine interface {
	engine.Engine
	Flush(now sim.Time)
	Base() *engine.Base
	CrashAndRecover() (int, error)
}

// system is a populated system under test, as the correctness gate
// sees it: something that resolves an LBA to stored content and can be
// crashed and recovered. A single engine and a whole server both are.
type system interface {
	ReadContent(lba uint64) (uint64, bool)
	CrashAndRecover() (int, error)
}

// samples holds the exact per-request virtual times of one observed
// pass, measured portion only (request index ≥ warm-up).
type samples struct {
	writeUS, readUS []float64 // engine service time per op type
	sojournUS       []float64 // queue wait + service from scheduled arrival
}

func (s *samples) add(op trace.Op, measured bool, serviceUS, sojournUS int64) {
	if !measured {
		return
	}
	if op == trace.Write {
		s.writeUS = append(s.writeUS, float64(serviceUS))
	} else {
		s.readUS = append(s.readUS, float64(serviceUS))
	}
	s.sojournUS = append(s.sojournUS, float64(sojournUS))
}

// outcome is what one pass of a whole trace leaves behind: its host
// cost, the simulated state it ended in, and the counters the
// per-layer report reads.
type outcome struct {
	use      usage
	requests int
	st       *engine.Stats // merged over engines; replay: measured portion only
	used     uint64        // physical blocks occupied at the end
	snap     *metrics.Snapshot
	arrays   []*raid.Array
	errs     int64   // engine errors, shed or refused requests, submit errors
	digest   float64 // virtual-time fingerprint: replay mean RT, serve last completion
	// windowUS is the virtual window from first arrival to last
	// completion (replay without an observer: to last arrival)
	windowUS  int64
	completed int64
	// serve only
	shed       int64
	perShard   []server.ShardSnapshot
	newWall    time.Duration // server.New
	closeWall  time.Duration // Server.Close
	submitWall time.Duration // Σ time inside SubmitBatch, all clients
}

// merge folds a second engine's pass into o (cdc-shifted runs one
// engine per chunker and reports the pair as one).
func (o *outcome) merge(p outcome) {
	o.use.wall += p.use.wall
	o.use.cpu += p.use.cpu
	o.use.bytes += p.use.bytes
	o.use.mallocs += p.use.mallocs
	o.requests += p.requests
	if o.st == nil {
		o.st, o.snap = engine.NewStats(), metrics.NewSnapshot()
	}
	o.st.Merge(p.st)
	o.snap.Merge(p.snap)
	o.used += p.used
	o.arrays = append(o.arrays, p.arrays...)
	o.errs += p.errs
	o.digest += p.digest
	o.windowUS += p.windowUS
	o.completed += p.completed
}

// sameState reports whether two passes ended in the same simulated
// state. Exact workloads must, whatever drove them.
func (o *outcome) sameState(p *outcome) bool {
	return o.used == p.used && o.st.Writes == p.st.Writes && o.st.Reads == p.st.Reads &&
		o.st.WritesRemoved == p.st.WritesRemoved && o.st.ChunksWritten == p.st.ChunksWritten &&
		o.digest == p.digest
}

// engineConfig assembles one engine's platform exactly as podsim and
// podload do: experiments.BuildConfig for the trace's dimensions at its
// scale, then the feature axes this workload switches on.
func (in *input) engineConfig(algo cdc.Algo) engine.Config {
	cfg := experiments.BuildConfig(in.prof, in.scale)
	cfg.Chunking = cdc.Params{Algo: algo}
	if in.spec.stream {
		cfg.Streams = engine.StreamParams{Enabled: true}
	}
	return cfg
}

func newPOD(cfg engine.Config) podEngine {
	return experiments.NewEngine(experiments.POD, cfg).(podEngine)
}

// driver runs passes of one workload's trace, each on a freshly built
// system.
type driver interface {
	// warm drives only the trace's warm-up prefix: the discarded pass
	// of set-up, which grows the heap and faults in the code.
	warm() outcome
	// timed drives the whole trace with the production entry point
	// (replay.Run, or SubmitBatch clients) and nothing observed. With a
	// tracer the engines are wrapped and spans recorded.
	timed(tc *tracer) outcome
	// observed drives the whole trace collecting every request's
	// virtual times into smp, and returns the populated systems for the
	// correctness gate.
	observed(smp *samples) (outcome, []system)
	// flood drives the whole trace with every arrival at t=0; its
	// virtual window is the system's simulated capacity.
	flood() outcome
}

func newDriver(in *input, clients int) driver {
	switch in.spec.kind {
	case kindServe:
		return newServeDriver(in, clients)
	case kindCDC:
		return &replayDriver{in: in, algos: []cdc.Algo{cdc.Gear, cdc.SeqCDC}}
	default:
		return &replayDriver{in: in, algos: []cdc.Algo{cdc.Fixed4K}}
	}
}

// --- replay ---

// replayDriver replays the trace against one fresh POD engine per
// chunker, back to back, and reports the engines as one system.
type replayDriver struct {
	in    *input
	algos []cdc.Algo

	flooded *trace.Trace // the trace with every arrival at t=0, built on first use
}

func (d *replayDriver) warm() outcome {
	prefix := &trace.Trace{Name: d.in.tr.Name, Requests: d.in.tr.Requests[:max(d.in.warmup, 1)]}
	out, _ := d.all(prefix, nil, nil)
	return out
}

func (d *replayDriver) timed(tc *tracer) outcome {
	out, _ := d.all(d.in.tr, tc, nil)
	return out
}

func (d *replayDriver) observed(smp *samples) (outcome, []system) { return d.all(d.in.tr, nil, smp) }

func (d *replayDriver) flood() outcome {
	if d.flooded == nil {
		d.flooded = &trace.Trace{Name: d.in.tr.Name, Requests: append([]trace.Request(nil), d.in.tr.Requests...)}
		for i := range d.flooded.Requests {
			d.flooded.Requests[i].Time = 0
		}
	}
	// observed only for the completion times the window is read from
	out, _ := d.all(d.flooded, nil, &samples{})
	return out
}

// all replays tr against one fresh engine per chunker, back to back,
// folds the results, and returns the populated engines. Engines are not
// handed back to the page pools (replay.Releaser): the collections
// between passes empty those pools anyway.
func (d *replayDriver) all(tr *trace.Trace, tc *tracer, smp *samples) (outcome, []system) {
	var out outcome
	var engines []system
	for lane, algo := range d.algos {
		o, e := d.one(algo, tr, tc, lane, smp)
		out.merge(o)
		engines = append(engines, e)
	}
	return out, engines
}

// one replays tr against a fresh engine, traced when tc is given and
// observed when smp is. The engine is returned populated.
func (d *replayDriver) one(algo cdc.Algo, tr *trace.Trace, tc *tracer, lane int, smp *samples) (outcome, podEngine) {
	cfg := d.in.engineConfig(algo)
	pe := newPOD(cfg)
	var e engine.Engine = pe
	if tc != nil {
		e = tc.wrapReplay(pe, lane, len(tr.Requests))
		tc.beginPass(spanReplay)
	}
	first, last := tr.Requests[0].Time, tr.Requests[len(tr.Requests)-1].Time
	window := int64(last.Sub(first))
	var res *replay.Result
	m := startMeter()
	if smp != nil {
		warm := d.in.warmup
		var end int64
		res = replay.RunObserved(e, tr, min(warm, len(tr.Requests)), func(i int, r *trace.Request, us int64) {
			// replay is unqueued: a request starts when it arrives, so
			// its sojourn is its service time
			smp.add(r.Op, i >= warm, us, us)
			if c := int64(r.Time) + us; c > end {
				end = c
			}
		})
		window = end - int64(first)
	} else {
		res = replay.Run(e, tr, min(d.in.warmup, len(tr.Requests)))
	}
	use := m.stop()
	if tc != nil {
		tc.endPass()
	}
	st := engine.NewStats()
	st.Merge(res.Stats)
	errs := st.WriteErrors + st.ReadErrors
	return outcome{
		use:       use,
		requests:  len(tr.Requests),
		st:        st,
		used:      res.UsedBlocks,
		snap:      res.Metrics,
		arrays:    []*raid.Array{cfg.Array},
		errs:      errs,
		digest:    res.MeanRT,
		windowUS:  window,
		completed: int64(len(tr.Requests)) - errs,
	}, pe
}

// --- serve ---

// serveDriver drives the trace through internal/server the way podload
// does: client goroutines that each own a disjoint set of shards
// (client = shard mod clients), so every shard receives its arrivals
// in schedule order, submitting in batches of submitBatch.
type serveDriver struct {
	in      *input
	clients int
	parts   [][]int32 // request indexes per client, trace order
	byShard [][]int32 // request indexes per shard, trace order
}

func newServeDriver(in *input, clients int) *serveDriver {
	d := &serveDriver{in: in, clients: clients, parts: make([][]int32, clients), byShard: make([][]int32, serveShards)}
	for i := range in.tr.Requests {
		sh := in.router.Shard(in.tr.Requests[i].LBA)
		d.parts[sh%clients] = append(d.parts[sh%clients], int32(i))
		d.byShard[sh] = append(d.byShard[sh], int32(i))
	}
	return d
}

// serveOpts selects the server variants the per-layer report needs on
// top of the workload's own configuration.
type serveOpts struct {
	tc     *tracer
	noTier bool // build the workload's server without the tier and scanner
	null   bool // shards hold engines that do nothing
}

// newServer builds the workload's server over fresh engines. Queue
// depth, drain batch, backpressure and retry policy are the package
// defaults, as in podload.
func (d *serveDriver) newServer(o serveOpts) (*server.Server, []*raid.Array, error) {
	tier := d.in.spec.tier && !o.noTier
	arrays := make([]*raid.Array, serveShards)
	srv, err := server.New(server.Config{
		Shards:   serveShards,
		Timing:   server.Queued,
		GlobalFP: tier && !o.null,
		NewEngine: func(shard int) engine.Engine {
			if o.null {
				return newNullEngine()
			}
			cfg := d.in.engineConfig(cdc.Fixed4K)
			arrays[shard] = cfg.Array
			e := newPOD(cfg)
			if tier {
				// the tier's shard agents wrap the out-of-line scanner,
				// so it attaches first (podload -globalfp does the same)
				bgdedup.Attach(e, bgdedup.Params{})
			}
			if o.tc != nil {
				return o.tc.wrapShard(e, shard, d.byShard[shard])
			}
			return e
		},
	})
	return srv, arrays, err
}

// request builds the i-th request for submission at the given open-loop
// rate (requests per second of virtual time; 0 floods at t=0). The
// trace's own timestamps are not used: the schedule is fixed up front,
// independent of completions.
func (d *serveDriver) request(i int, rate float64) server.Request {
	r := &d.in.tr.Requests[i]
	req := server.Request{Op: r.Op, LBA: r.LBA, Stream: r.Stream}
	if rate > 0 {
		req.Time = int64(float64(i) * 1e6 / rate)
	}
	if r.Op == trace.Read {
		req.Chunks = r.N
	} else {
		req.Content = r.Content
	}
	return req
}

// submitAll runs the client goroutines over the requests below limit
// and returns the number of failed SubmitBatch calls and the time spent
// inside them.
func (d *serveDriver) submitAll(srv *server.Server, rate float64, limit int, tc *tracer) (submitErrs int64, inSubmit time.Duration) {
	var errs, busy atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf *spanBuf
			if tc != nil {
				buf = tc.clientBuf(c)
			}
			// ownership of a submitted batch passes to the server, so
			// each flush starts a fresh one
			var batch []server.Request
			flush := func() {
				if len(batch) == 0 {
					return
				}
				var t0 int64
				if buf != nil {
					t0 = buf.now()
				}
				err := srv.SubmitBatch(batch)
				if buf != nil {
					busy.Add(buf.add(spanSubmit, -1, t0))
				}
				if err != nil {
					errs.Add(1)
				}
				batch = nil
			}
			for _, i := range d.parts[c] {
				if int(i) >= limit {
					break
				}
				if batch == nil {
					batch = make([]server.Request, 0, submitBatch)
				}
				batch = append(batch, d.request(int(i), rate))
				if len(batch) == cap(batch) {
					flush()
				}
			}
			flush()
		}(c)
	}
	wg.Wait()
	return errs.Load(), time.Duration(busy.Load())
}

func (d *serveDriver) warm() outcome {
	return d.submitPass(serveRate, max(d.in.warmup, 1), serveOpts{})
}

func (d *serveDriver) timed(tc *tracer) outcome {
	return d.submitPass(serveRate, len(d.in.tr.Requests), serveOpts{tc: tc})
}

func (d *serveDriver) flood() outcome {
	return d.submitPass(0, len(d.in.tr.Requests), serveOpts{})
}

// submitPass is the production serving pass over the requests below
// limit: first submit to Close returning is the measured region;
// building the server is not.
func (d *serveDriver) submitPass(rate float64, limit int, o serveOpts) outcome {
	t0 := time.Now()
	srv, arrays, err := d.newServer(o)
	if err != nil {
		return failedOutcome(err)
	}
	newWall := time.Since(t0)
	if o.tc != nil {
		o.tc.beginPass(spanServe)
	}
	m := startMeter()
	submitErrs, inSubmit := d.submitAll(srv, rate, limit, o.tc)
	c0 := time.Now()
	cerr := srv.Close()
	closeWall := time.Since(c0)
	use := m.stop()
	if o.tc != nil {
		o.tc.endPass()
	}
	out := d.finish(srv, arrays, limit, use, submitErrs, cerr)
	out.newWall, out.closeWall, out.submitWall = newWall, closeWall, inSubmit
	return out
}

func (d *serveDriver) observed(smp *samples) (outcome, []system) {
	return d.doPass(serveRate, serveOpts{}, smp)
}

// doPass submits every request with Server.Do, which returns the
// request's virtual times. The clients split the work as in the
// production pass, so every shard still sees its own stream in trace
// order and the virtual results are those of the batched pass (the
// caller checks the final state against it).
func (d *serveDriver) doPass(rate float64, o serveOpts, smp *samples) (outcome, []system) {
	srv, arrays, err := d.newServer(o)
	if err != nil {
		return failedOutcome(err), nil
	}
	n := len(d.in.tr.Requests)
	results := make([]server.Result, n)
	var failed atomic.Int64
	var wg sync.WaitGroup
	m := startMeter()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range d.parts[c] {
				req := d.request(int(i), rate)
				res, err := srv.Do(&req)
				if err != nil || res.Err != nil {
					// a failed or refused request misses any latency limit
					failed.Add(1)
					res.Service, res.Sojourn = math.MaxInt64, math.MaxInt64
				}
				results[i] = res
			}
		}(c)
	}
	wg.Wait()
	cerr := srv.Close()
	use := m.stop()
	for i := range results {
		smp.add(d.in.tr.Requests[i].Op, i >= d.in.warmup, results[i].Service, results[i].Sojourn)
	}
	return d.finish(srv, arrays, n, use, failed.Load(), cerr), []system{srv}
}

// finish reads a closed server's merged counters into an outcome.
func (d *serveDriver) finish(srv *server.Server, arrays []*raid.Array, submitted int, use usage, failed int64, closeErr error) outcome {
	snap := srv.Stats()
	n := int64(submitted)
	out := outcome{
		use:       use,
		requests:  int(n),
		st:        snap.Engine,
		used:      snap.UsedBlocks,
		snap:      snap.Metrics,
		arrays:    arrays,
		errs:      failed + snap.ShedCount + snap.Engine.WriteErrors + snap.Engine.ReadErrors,
		digest:    float64(snap.LastComplete),
		windowUS:  int64(snap.LastComplete.Sub(snap.FirstArrival)),
		completed: snap.Completed,
		shed:      snap.ShedCount,
		perShard:  snap.PerShard,
	}
	if closeErr != nil {
		out.errs++
	}
	if snap.Completed < n {
		// anything neither completed nor already counted went missing
		if lost := n - snap.Completed - failed - snap.ShedCount; lost > 0 {
			out.errs += lost
		}
	}
	return out
}

func failedOutcome(err error) outcome {
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return outcome{st: engine.NewStats(), snap: metrics.NewSnapshot(), errs: 1}
}

// nullEngine is an engine.Engine that does nothing: a server built over
// it exercises router, bucketing, channel hand-off, batched drain and
// reply with zero engine work.
type nullEngine struct {
	st  *engine.Stats
	reg *metrics.Registry
}

func newNullEngine() *nullEngine {
	return &nullEngine{st: engine.NewStats(), reg: metrics.NewRegistry()}
}

func (*nullEngine) Name() string                                 { return "null" }
func (*nullEngine) Write(*trace.Request) (sim.Duration, error)   { return 1, nil }
func (*nullEngine) Read(*trace.Request) (sim.Duration, error)    { return 1, nil }
func (e *nullEngine) Stats() *engine.Stats                       { return e.st }
func (e *nullEngine) Metrics() *metrics.Registry                 { return e.reg }
func (*nullEngine) UsedBlocks() uint64                           { return 0 }
func (*nullEngine) ReadContent(uint64) (content uint64, ok bool) { return 0, false }
