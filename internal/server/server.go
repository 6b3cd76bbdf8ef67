// Package server is the concurrent volume-serving layer over the POD
// storage engines: the piece that turns the single-trace, synchronous
// replay harness into something shaped like a primary storage front
// end serving many tenants at once.
//
// The LBA space is sharded across N independent engine instances —
// each shard owns its own allocator, fingerprint index, map table,
// NVRAM journal and read cache, so the hot path takes no cross-shard
// locks. A router dispatches each request to the worker goroutine of
// the shard owning its first chunk over a bounded channel; when a
// shard's queue is full the server either blocks the submitter or
// sheds the request, per the configured backpressure policy. Workers
// opportunistically drain their queue in batches, amortizing
// synchronization over several requests.
//
// Time has two domains here. Engines compute *simulated* service
// times from request virtual timestamps; the server additionally
// models per-shard queueing in that same virtual domain (a request
// arriving while its shard is busy starts when the shard frees up, and
// its reported sojourn includes the wait). Wall-clock concurrency —
// the worker goroutines — is real, so serving throughput of the
// harness itself also scales with shards. One shard serving one client
// leaves its engine exactly as the direct replay path leaves one given
// the same requests stamped with the start times the shard's queue
// assigned them; see TestBridgeByteIdenticalToReplay.
package server

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pod-dedup/pod/internal/alloc"
	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/globalfp"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
)

// Policy selects the backpressure behavior when a shard queue is full.
type Policy int

// Backpressure policies.
const (
	// Block makes a submission wait until the shard queue has room —
	// the default, load is pushed back onto the client.
	Block Policy = iota
	// Shed drops what does not fit, counting every dropped request (Do
	// fails fast with ErrShed).
	Shed
)

// ParsePolicy resolves "block" or "shed".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "shed":
		return Shed, nil
	}
	return Block, fmt.Errorf("server: unknown backpressure policy %q (want block or shed)", s)
}

// Timing selects how request virtual timestamps reach the engines.
type Timing int

// Queued, the one timing mode, models each shard as a FCFS queue in
// virtual time: a request starts at max(arrival, shard next-free) and
// its sojourn includes the queue wait.
const Queued Timing = 0

// Sentinel errors of the submission path.
var (
	ErrClosed = errors.New("server: closed")
	ErrShed   = errors.New("server: request shed (shard queue full)")
)

// Config assembles a server.
type Config struct {
	// Shards is the number of independent engine instances (default 1).
	Shards int
	// GranChunks is the routing granule in chunks (default
	// DefaultGranChunks).
	GranChunks uint64
	// QueueDepth bounds each shard's request channel (default 128).
	QueueDepth int
	// Policy is the backpressure policy when a queue is full.
	Policy Policy
	// Timing selects the timestamp handling; Queued is the one mode.
	Timing Timing
	// NewEngine constructs shard i's engine. Each call must return a
	// fresh engine over fresh substrates; shards share nothing.
	NewEngine func(shard int) engine.Engine

	// GlobalFP enables the global fingerprint tier: an async
	// fingerprint-sharded second index that detects cross-shard
	// duplicates and recovers the dedup ratio lost to LBA sharding.
	// Requires 2–64 shards and engines exposing a Map-table substrate
	// (Select-Dedupe or POD), each with a bgdedup scanner attached; see
	// internal/globalfp.
	GlobalFP bool

	// TraceSample, when positive, records every TraceSample-th request
	// served by each shard as a structured trace (full phase timeline)
	// into a per-shard ring buffer drained via Traces(). 0 disables
	// sampling.
	TraceSample int

	// Fault-handling policy. All times are virtual microseconds; the
	// whole retry/backoff machinery runs in the simulated time domain
	// and is deterministic for a given RetrySeed.

	// RetrySeed seeds the backoff jitter sequence (default 1).
	RetrySeed uint64
	// DeadlineUS is the per-request virtual-time budget measured from
	// arrival: when queueing or a scheduled retry would start past it,
	// the request fails with KindDeadlineExceeded. 0 disables deadlines.
	DeadlineUS int64

	// The limits below have one production value each, the default.
	// They are fields only so this package's safety tests can reach
	// their edges (a retry budget of 2, a breaker that trips after 3, a
	// batch of 1); nothing outside the package can set them.

	// maxBatch bounds how many queue entries a worker drains and serves
	// per synchronization round (default DefaultMaxBatch).
	maxBatch int
	// maxRetries bounds re-attempts after a transient storage fault
	// (default 3; -1 disables retries). Permanent faults never retry.
	maxRetries int
	// retryBaseUS is the first backoff (default 200 µs); each further
	// attempt doubles it up to retryMaxUS (default 20 ms). A
	// deterministic jitter in [0, backoff/2) is added on top.
	retryBaseUS int64
	retryMaxUS  int64
	// breakerThreshold opens a shard's circuit breaker after this many
	// consecutive terminal failures (default 8; -1 disables). An open
	// breaker sheds requests with KindUnavailable until
	// breakerCooldownUS (default 200 ms) of virtual time passes, then
	// admits one probe: success closes the breaker, failure re-opens it.
	breakerThreshold  int
	breakerCooldownUS int64
}

// traceBuf caps each shard's sampled-trace ring: newest win.
const traceBuf = 256

// DefaultMaxBatch is the serving value of a worker's drain bound.
const DefaultMaxBatch = 32

func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("server: %d shards", c.Shards)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 128
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("server: queue depth %d", c.QueueDepth)
	}
	if c.maxBatch == 0 {
		c.maxBatch = DefaultMaxBatch
	}
	if c.NewEngine == nil {
		return c, errors.New("server: Config.NewEngine is required")
	}
	if c.TraceSample < 0 {
		return c, fmt.Errorf("server: trace sample %d (want >= 0)", c.TraceSample)
	}
	switch c.maxRetries {
	case 0:
		c.maxRetries = 3
	case -1:
		c.maxRetries = 0
	}
	if c.retryBaseUS == 0 {
		c.retryBaseUS = 200
	}
	if c.retryMaxUS == 0 {
		c.retryMaxUS = 20000
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.DeadlineUS < 0 {
		return c, fmt.Errorf("server: deadline %dus", c.DeadlineUS)
	}
	if c.breakerThreshold == 0 { // -1 disables
		c.breakerThreshold = 8
	}
	if c.breakerCooldownUS == 0 {
		c.breakerCooldownUS = 200000
	}
	return c, nil
}

// Request is one block-level I/O submitted to the server — the shared
// api.Request type the public pod package also exposes, so requests
// built against either surface are interchangeable. Request.Time is
// the virtual arrival time (open-loop generators stamp their own
// schedule here; per shard it need not be monotone — the timing mode
// clamps). LBA and lengths are in 4 KiB chunks; writes carry a content
// ID per chunk.
type Request = api.Request

// Result is the completion record of one request (shared api.Result):
// Sojourn is queue wait + service.
type Result = api.Result

// entry is one shard-queue entry: the requests of one submission bound
// for this shard, in order. done is set only by Do, whose batch is its
// one request.
type entry struct {
	reqs []*Request
	done chan Result
}

// reply hands a completion record to a waiting Do; SubmitBatch waits
// for none.
func (e entry) reply(res Result) {
	if e.done != nil {
		e.done <- res
	}
}

// baseHolder matches engines exposing their substrate: every scheme is
// an *engine.Pipeline, and decorators forward its Base.
type baseHolder interface {
	Base() *engine.Base
}

type shard struct {
	id  int
	ch  chan entry
	eng engine.Engine
	// base is the engine's substrate, resolved once in New; nil for an
	// engine that exposes none (a null engine, a test fake). Recovery,
	// the cross-shard audit and the remote read hop go through it.
	base *engine.Base

	// metric handles resolved at construction: the engine's phase set
	// (queue wait is observed into it after each serve so sampled
	// traces carry the full timeline) and shard-labeled queue-wait and
	// service histograms, registered in the shard engine's registry.
	ph    *metrics.PhaseSet
	qwait *metrics.Histogram
	svc   *metrics.Histogram
	seq   int64
	ring  *metrics.TraceRing

	// mu serializes the worker's serving rounds against snapshots,
	// ReadContent, and recovery. The worker holds it only
	// while serving a drained batch, never while blocked on the
	// channel.
	mu sync.Mutex
	// treq is the engine-facing request of the attempt in progress,
	// owned by whoever holds mu: handed to the engine through its
	// interface, a per-attempt value would escape to the heap.
	treq      trace.Request
	nextFree  sim.Time // virtual time the engine frees up
	lastStart sim.Time // start of the last attempt served
	lat       *stats.Histogram
	completed int64
	batches   int64
	maxBatch  int
	firstArr  sim.Time
	lastDone  sim.Time
	anyServed bool

	// fault-handling state, all under mu (the registry's GaugeFunc
	// callbacks for these counters are evaluated by Stats(), which also
	// holds mu)
	retrySeq    uint64 // deterministic jitter counter
	retries     int64
	failed      int64 // requests that ended in a terminal error
	deadlined   int64
	consecFails int      // consecutive terminal failures (breaker input)
	brOpen      bool     // circuit breaker open
	brUntil     sim.Time // virtual time the breaker half-opens
	brOpens     int64
	brShed      int64 // requests refused with KindUnavailable

	// per-shard failure domain (CrashShard/RecoverShard): while down,
	// the queue fail-replies everything with KindShardDown instead of
	// touching the engine. Written with every shard lock held; atomic so
	// DownShards can report it to operators mid-serve without one.
	down        atomic.Bool
	downRefused int64
}

// flusher matches engines with background work to drain at shutdown
// (same contract as replay.Flusher, declared locally to keep the
// dependency arrow pointing one way).
type flusher interface {
	Flush(now sim.Time)
}

// Server is a sharded volume service.
type Server struct {
	cfg    Config
	router Router
	shards []*shard

	// reg holds server-level metrics (shed count); per-shard serving
	// metrics live in each shard engine's registry under shard labels.
	reg *metrics.Registry

	// global fingerprint tier (nil unless Config.GlobalFP)
	tier       *globalfp.Tier
	agents     []*globalfp.Agent
	settleOnce sync.Once

	wg      sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	errMu    sync.Mutex
	closeErr error // first worker failure, reported by Close

	shed int64 // atomic
}

// recordErr keeps the first worker failure for Close to report.
func (s *Server) recordErr(err error) {
	s.errMu.Lock()
	if s.closeErr == nil {
		s.closeErr = err
	}
	s.errMu.Unlock()
}

// New builds and starts a server: engines are constructed and one
// worker goroutine per shard begins consuming its queue.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		router: NewRouter(cfg.Shards, cfg.GranChunks),
		shards: make([]*shard, cfg.Shards),
		reg:    metrics.NewRegistry(),
	}
	s.reg.GaugeFunc("server_shed_total", func() int64 { return atomic.LoadInt64(&s.shed) })
	for i := range s.shards {
		eng := cfg.NewEngine(i)
		if eng == nil {
			return nil, fmt.Errorf("server: NewEngine(%d) returned nil", i)
		}
		label := strconv.Itoa(i)
		reg := eng.Metrics()
		sh := &shard{
			id:    i,
			ch:    make(chan entry, cfg.QueueDepth),
			eng:   eng,
			lat:   stats.NewHistogram(),
			ph:    reg.Phases(),
			qwait: reg.Histogram(metrics.Labeled("server_queue_wait_us", "shard", label)),
			svc:   reg.Histogram(metrics.Labeled("server_service_us", "shard", label)),
		}
		if h, ok := eng.(baseHolder); ok {
			sh.base = h.Base()
		}
		if cfg.TraceSample > 0 {
			sh.ring = metrics.NewTraceRing(traceBuf)
		}
		// queue depth is read by snapshots while the worker serves;
		// len() on a channel is safe from other goroutines
		reg.GaugeFunc(metrics.Labeled("server_queue_depth", "shard", label),
			func() int64 { return int64(len(sh.ch)) })
		// fault-handling counters (written under sh.mu; Stats evaluates
		// the engine registry snapshot while holding sh.mu, so these
		// callbacks never race the worker)
		reg.GaugeFunc(metrics.Labeled("server_retries", "shard", label),
			func() int64 { return sh.retries })
		reg.GaugeFunc(metrics.Labeled("server_failed", "shard", label),
			func() int64 { return sh.failed })
		reg.GaugeFunc(metrics.Labeled("server_deadline_exceeded", "shard", label),
			func() int64 { return sh.deadlined })
		reg.GaugeFunc(metrics.Labeled("server_breaker_opens", "shard", label),
			func() int64 { return sh.brOpens })
		reg.GaugeFunc(metrics.Labeled("server_breaker_shed", "shard", label),
			func() int64 { return sh.brShed })
		reg.GaugeFunc(metrics.Labeled("server_breaker_open", "shard", label),
			func() int64 {
				if sh.brOpen {
					return 1
				}
				return 0
			})
		reg.GaugeFunc(metrics.Labeled("server_shard_down", "shard", label),
			func() int64 {
				if sh.down.Load() {
					return 1
				}
				return 0
			})
		reg.GaugeFunc(metrics.Labeled("server_shard_down_refused", "shard", label),
			func() int64 { return sh.downRefused })
		s.shards[i] = sh
	}
	if cfg.GlobalFP {
		if err := s.initGlobalFP(); err != nil {
			return nil, err
		}
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.worker(sh)
	}
	return s, nil
}

// Shard reports which shard owns lba.
func (s *Server) Shard(lba uint64) int { return s.router.Shard(lba) }

// worker serves one shard: it blocks for a queue entry, then drains up
// to DefaultMaxBatch-1 more without blocking and serves the whole batch
// under one lock acquisition. When the channel closes it finishes the
// backlog (a closed channel yields its buffered entries first) and
// flushes the engine's background work.
//
// A panic anywhere in the serving path (a corrupted engine invariant)
// does not take down the process: the worker records the failure for
// Close to report and fail-drains its queue — every queued and future
// request on the shard completes with KindUnavailable instead of
// blocking its submitter forever.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	batch := make([]entry, 0, s.cfg.maxBatch)
	served := 0 // within the current batch; the recover path fails the rest
	fail := func(e entry) {
		e.reply(Result{Shard: sh.id,
			Err: fault.New(fault.KindUnavailable, fault.Permanent, -1, 0, sim.Time(e.reqs[0].Time))})
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.recordErr(fmt.Errorf("server: shard %d worker panicked: %v", sh.id, r))
		// the drained-but-unserved tail of the current batch first (the
		// request that panicked included — its submitter is blocked in
		// Do), then everything queued and yet to come
		for _, e := range batch[served:] {
			fail(e)
		}
		for e := range sh.ch {
			fail(e)
		}
	}()
	// serve under the lock in a closure so a panic releases sh.mu on
	// the way to the fail-drain recover above
	serveBatch := func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, e := range batch[served:] {
			for _, req := range e.reqs {
				e.reply(sh.serve(req, &s.cfg))
			}
			served++
		}
		sh.batches++
		if len(batch) > sh.maxBatch {
			sh.maxBatch = len(batch)
		}
	}
	for {
		r, ok := <-sh.ch
		if !ok {
			break
		}
		batch, served = append(batch[:0], r), 0
	fill:
		for len(batch) < s.cfg.maxBatch {
			select {
			case r2, ok2 := <-sh.ch:
				if !ok2 {
					break fill
				}
				batch = append(batch, r2)
			default:
				break fill
			}
		}
		serveBatch()
	}
	func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		// a crashed shard's engine is conceptually powered off; its
		// background work is rebuilt at recovery, not flushed
		if f, ok := sh.eng.(flusher); ok && !sh.down.Load() {
			f.Flush(sh.lastStart)
		}
	}()
}

// backoff computes the virtual-time delay before retry attempt (1-based)
// plus a deterministic jitter in [0, delay/2).
func (sh *shard) backoff(cfg *Config, attempt int) sim.Duration {
	d := cfg.retryBaseUS
	for i := 1; i < attempt && d < cfg.retryMaxUS; i++ {
		d <<= 1
	}
	if d > cfg.retryMaxUS {
		d = cfg.retryMaxUS
	}
	sh.retrySeq++
	if half := uint64(d / 2); half > 0 {
		d += int64(splitmix64(cfg.RetrySeed^uint64(sh.id)<<32^sh.retrySeq) % half)
	}
	return sim.Duration(d)
}

// splitmix64 is the standard 64-bit mixer (jitter coin).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// refusal is the completion record of a request turned away at arrival
// without touching the engine; the client may retry.
func (sh *shard) refusal(at sim.Time, kind fault.Kind) Result {
	return Result{Shard: sh.id, Start: int64(at), Complete: int64(at),
		Err: fault.New(kind, fault.Transient, -1, 0, at)}
}

// serve runs one request through the shard engine, applying the fault
// policy: transient engine errors are retried with exponential backoff
// and deterministic jitter in virtual time, a virtual deadline bounds
// queueing plus retries, and a per-shard circuit breaker sheds to
// degraded service after sustained terminal failures. It returns the
// request's completion record. Caller holds sh.mu.
func (sh *shard) serve(r *Request, cfg *Config) Result {
	arrival := sim.Time(r.Time)

	// crashed shard: fail-reply everything with a typed transient error
	// — the engine is conceptually powered off. Clients retry against
	// their own deadlines; the other shards keep serving.
	if sh.down.Load() {
		sh.downRefused++
		sh.failed++
		return sh.refusal(arrival, fault.KindShardDown)
	}

	// circuit breaker: while open, refuse without touching the engine;
	// after the cooldown the next request is the half-open probe.
	if cfg.breakerThreshold > 0 && sh.brOpen && arrival < sh.brUntil {
		sh.brShed++
		return sh.refusal(arrival, fault.KindUnavailable)
	}

	start := max(arrival, sh.nextFree)

	var deadline sim.Time
	if cfg.DeadlineUS > 0 {
		deadline = arrival.Add(sim.Duration(cfg.DeadlineUS))
	}

	var rt sim.Duration
	var err error
	retries := 0
	complete := start
	if deadline > 0 && start >= deadline {
		// the queue wait alone blew the budget
		err = fault.New(fault.KindDeadlineExceeded, fault.Permanent, -1, 0, start)
	} else {
		for {
			sh.treq = trace.Request{Time: start, Op: r.Op, LBA: r.LBA, N: r.Len(), Stream: r.Stream, Content: r.Content}
			if r.Op == trace.Write {
				rt, err = sh.eng.Write(&sh.treq)
			} else {
				rt, err = sh.eng.Read(&sh.treq)
			}
			complete = start.Add(rt)
			if err == nil || !fault.IsTransient(err) || retries >= cfg.maxRetries {
				break
			}
			next := complete.Add(sh.backoff(cfg, retries+1))
			if deadline > 0 && next >= deadline {
				err = fault.New(fault.KindDeadlineExceeded, fault.Permanent, -1, 0, complete)
				break
			}
			retries++
			sh.retries++
			start = next
		}
	}

	// rt is the last attempt's service time and complete = start + rt,
	// also when the deadline cut the retries short
	sojourn := complete.Sub(arrival)
	sh.nextFree = complete
	sh.lastStart = start
	sh.seq++
	if !sh.anyServed || arrival < sh.firstArr {
		sh.firstArr = arrival
	}
	if complete > sh.lastDone {
		sh.lastDone = complete
	}
	sh.anyServed = true
	res := Result{Shard: sh.id, Start: int64(start), Complete: int64(complete),
		Service: int64(rt), Sojourn: int64(sojourn), Retries: retries, Err: err}

	if err != nil {
		sh.failed++
		if fe, ok := err.(*fault.Error); ok && fe.Kind == fault.KindDeadlineExceeded {
			sh.deadlined++
		}
		// breaker accounting: sustained terminal failures trip it; a
		// failed half-open probe re-arms the cooldown. A full array is
		// no fault of the shard's health, and the shard still serves
		// reads and deduplicated writes, so it neither counts nor
		// resets.
		if cfg.breakerThreshold > 0 && !errors.Is(err, engine.ErrNoSpace) {
			sh.consecFails++
			if sh.brOpen || sh.consecFails >= cfg.breakerThreshold {
				if !sh.brOpen {
					sh.brOpens++
				}
				sh.brOpen = true
				sh.brUntil = complete.Add(sim.Duration(cfg.breakerCooldownUS))
			}
		}
		return res
	}
	sh.consecFails = 0
	sh.brOpen = false // a success closes a half-open breaker

	// The engine reset the phase scratch (Ph.Begin) at the top of
	// its Write/Read, so queue wait must be observed after the engine
	// returns for the sampled timeline to include it.
	qw := int64(start.Sub(arrival))
	sh.ph.Observe(metrics.PhaseQueueWait, qw)
	sh.qwait.Observe(qw)
	sh.svc.Observe(int64(rt))

	sh.lat.Add(int64(sojourn))
	sh.completed++

	if cfg.TraceSample > 0 && sh.seq%int64(cfg.TraceSample) == 0 {
		sh.ring.Add(metrics.TraceRecord{
			Seq:      sh.seq,
			Shard:    sh.id,
			Op:       r.Op.String(),
			LBA:      r.LBA,
			Chunks:   r.Len(),
			Arrival:  int64(arrival),
			Start:    int64(start),
			Complete: int64(complete),
			Service:  int64(rt),
			Sojourn:  int64(sojourn),
			Phases:   sh.ph.LastTimeline(),
		})
	}
	return res
}

// offer hands e to shard sid's queue. Under the Block policy a full
// queue blocks the caller; under Shed it drops the entry, counting
// every request in it, and reports false. Caller holds closeMu (read).
func (s *Server) offer(sid int, e entry) bool {
	if s.cfg.Policy == Shed {
		select {
		case s.shards[sid].ch <- e:
			return true
		default:
			atomic.AddInt64(&s.shed, int64(len(e.reqs)))
			return false
		}
	}
	s.shards[sid].ch <- e
	return true
}

// SubmitBatch routes a batch of requests in one call: the batch is
// bucketed per destination shard, preserving order, and each shard
// receives its whole bucket as a single queue entry — one channel
// send (and one queue slot) per touched shard instead of one per
// request, which is what keeps cross-shard submission off the profile
// at high shard counts. Ownership of the slice transfers to the
// server; the caller must not mutate or reuse the backing array until
// the requests have been served (in practice: allocate a fresh batch
// per call).
//
// The whole batch is validated before anything is enqueued; a
// validation error rejects the batch without side effects. Under the
// Shed policy a full shard queue drops that shard's entire bucket
// (every dropped request is counted); other shards' buckets still
// land. Under Block a full queue blocks the caller. After Close it
// returns ErrClosed.
func (s *Server) SubmitBatch(reqs []Request) error {
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	buckets := make([][]*Request, len(s.shards))
	for i := range reqs {
		sid := s.router.Shard(reqs[i].LBA)
		buckets[sid] = append(buckets[sid], &reqs[i])
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for sid, b := range buckets {
		if len(b) > 0 {
			s.offer(sid, entry{reqs: b})
		}
	}
	return nil
}

// Do submits r and waits for its completion record. Under Shed a full
// shard queue fails it with ErrShed; after Close it returns ErrClosed.
func (s *Server) Do(r *Request) (Result, error) {
	if err := r.Validate(); err != nil {
		return Result{}, fmt.Errorf("server: %w", err)
	}
	e := entry{reqs: []*Request{r}, done: make(chan Result, 1)}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return Result{}, ErrClosed
	}
	queued := s.offer(s.router.Shard(r.LBA), e)
	s.closeMu.RUnlock()
	if !queued {
		return Result{}, ErrShed
	}
	return <-e.done, nil
}

// Close is the graceful drain: new submissions are refused, every
// queued request is served, background engine work is flushed, and the
// workers exit. It is idempotent and safe to call concurrently — the
// first caller closes the queues, every caller waits for the drain to
// finish, and all callers return the same first worker failure (nil on
// a clean drain). It is also safe to call concurrently with a
// submission (a submitter blocked on a full queue completes its send
// before Close proceeds, and that request is served).
func (s *Server) Close() error {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if !already {
		for _, sh := range s.shards {
			close(sh.ch)
		}
	}
	s.wg.Wait()
	if s.tier != nil {
		// Settlement: with the workers drained, stop the ad queues and
		// run the tier protocol to quiescence (every caller of a
		// concurrent Close waits for it; the work runs once).
		s.settleOnce.Do(s.settleGlobalFP)
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.closeErr
}

// ReadContent resolves lba through its owning shard's engine (the
// verification path; no simulated I/O). It cannot see the tail chunks
// of a write that straddled a routing granule: the first chunk's shard
// mapped those, not lba's owner (see Router). With the global
// fingerprint tier enabled a mapping may name a canonical block on
// another shard: the remote reference is resolved under the local
// shard's lock, then the content is read under the owner's — two
// sequential acquisitions, never nested, so shard lock order stays
// acyclic.
func (s *Server) ReadContent(lba uint64) (uint64, bool) {
	sh := s.shards[s.router.Shard(lba)]
	sh.mu.Lock()
	id, ok := sh.eng.ReadContent(lba)
	var enc alloc.PBA
	remote := false
	if !ok && sh.base != nil {
		enc, remote = sh.base.ResolveRemote(lba)
	}
	sh.mu.Unlock()
	if !remote {
		return id, ok
	}
	owner, canon := alloc.RemoteParts(enc)
	osh := s.shards[owner]
	osh.mu.Lock()
	defer osh.mu.Unlock()
	c, live := osh.base.Store.Read(canon)
	return uint64(c), live
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.closed
}

// lockAll takes every shard lock, ascending (the canonical order), and
// returns the release: `defer s.lockAll()()` holds the whole server
// still — no serving round, agent tick or recall snapshot interleaves.
func (s *Server) lockAll() (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}
}

// eachRemoteRef calls fn once per (referencing shard, remote-encoded
// canonical) pair found in the shards' Map tables — the durable
// cross-shard references, the tier's only crash-surviving state.
// Without the tier no mapping is remote-encoded and fn is never called.
// Caller holds every shard lock.
func (s *Server) eachRemoteRef(fn func(from int, enc alloc.PBA)) {
	for _, sh := range s.shards {
		if sh.base == nil {
			continue
		}
		seen := make(map[alloc.PBA]bool)
		sh.base.Map.Each(func(_ uint64, pba alloc.PBA, _ bool) bool {
			if alloc.IsRemote(pba) && !seen[pba] {
				seen[pba] = true
				fn(sh.id, pba)
			}
			return true
		})
	}
}

// recover is the one crash-recovery path, for the whole node and for a
// single failure domain, with the tier and without: the shards in set
// lose their DRAM state and rebuild from their NVRAM journals. It is
// three-phase because cross-shard references must be re-pinned before
// any allocator is rebuilt:
//
//  1. every shard in set replays its journal into a recovered Map table;
//  2. all shards' maps — recovered or live, both journal-backed — are
//     walked for remote mappings: one pin per (referencing shard,
//     canonical) pair on the canonical's owner, which also heals any
//     RefDown dropped toward a dead inbox;
//  3. every shard in set rebuilds allocator/store occupancy with its
//     pinned canonicals protected.
//
// Without the tier the walk finds nothing and phase 3 is
// RecoverFinish(nil): engine.Base.Recover, shard by shard. It returns
// the journal records replayed; a shard that cannot load fails the call,
// by name, before anything is rebuilt. Caller holds every shard lock.
func (s *Server) recover(set []*shard) (int, error) {
	total := 0
	for _, sh := range set {
		if sh.base == nil {
			return total, fmt.Errorf("server: shard %d engine %s does not support crash recovery", sh.id, sh.eng.Name())
		}
		n, err := sh.base.RecoverLoad()
		if err != nil {
			return total, fmt.Errorf("server: shard %d: %w", sh.id, err)
		}
		total += n
	}
	pinned := make([][]alloc.PBA, len(s.shards))
	s.eachRemoteRef(func(_ int, enc alloc.PBA) {
		owner, canon := alloc.RemoteParts(enc)
		pinned[owner] = append(pinned[owner], canon)
	})
	for _, sh := range set {
		sh.base.RecoverFinish(pinned[sh.id])
	}
	return total, nil
}

// CrashAndRecover simulates a whole-node power failure after Close:
// recover over every shard; the tier's tables and agent bookkeeping are
// volatile, reset, and re-learn from fresh advertisements; any per-shard
// outage is superseded. It returns the total journal records replayed,
// and an error if the server is still serving or any shard's engine
// lacks recovery support.
func (s *Server) CrashAndRecover() (int, error) {
	if !s.isClosed() {
		return 0, errors.New("server: CrashAndRecover before Close")
	}
	defer s.lockAll()()
	total, err := s.recover(s.shards)
	if err != nil {
		return total, err
	}
	if s.tier != nil {
		s.tier.Reset()
	}
	for _, sh := range s.shards {
		sh.down.Store(false)
	}
	return total, nil
}

// DownShards lists the shards currently crashed by CrashShard, in
// ascending order. Lock-free; usable mid-serve and from gauges.
func (s *Server) DownShards() []int {
	var out []int
	for i, sh := range s.shards {
		if sh.down.Load() {
			out = append(out, i)
		}
	}
	return out
}

// ShardSnapshot is one shard's contribution to a Snapshot.
type ShardSnapshot struct {
	Shard     int
	Completed int64
	Queued    int // requests waiting in the channel at snapshot time
	Batches   int64
	MaxBatch  int
}

// Snapshot is a merged view of the server's counters: per-shard engine
// statistics aggregated with engine.Stats.Merge, sojourn latency
// histograms merged, plus serving-layer counters.
type Snapshot struct {
	Shards     int
	Completed  int64
	ShedCount  int64
	Engine     *engine.Stats    // merged across shards
	Latency    *stats.Histogram // merged sojourn latencies, µs
	UsedBlocks uint64           // summed physical occupancy

	// Metrics is the merged metrics snapshot: per-shard engine
	// registries (phase histograms, substrate gauges, shard-labeled
	// queue-wait/service series) plus the server-level registry.
	Metrics *metrics.Snapshot

	// Virtual-time serving window: earliest arrival and latest
	// completion observed across shards. Aggregate throughput is
	// Completed / (LastComplete - FirstArrival).
	FirstArrival sim.Time
	LastComplete sim.Time

	PerShard []ShardSnapshot
}

// Throughput reports completed requests per virtual second over the
// serving window, 0 before anything completes.
func (s Snapshot) Throughput() float64 {
	window := s.LastComplete.Sub(s.FirstArrival)
	if window <= 0 || s.Completed == 0 {
		return 0
	}
	return float64(s.Completed) / window.Seconds()
}

// Stats takes a snapshot. It is safe while serving (each shard is
// paused briefly in turn), and exact once Close has returned.
func (s *Server) Stats() Snapshot {
	snap := Snapshot{
		Shards:    s.cfg.Shards,
		ShedCount: atomic.LoadInt64(&s.shed),
		Engine:    engine.NewStats(),
		Latency:   stats.NewHistogram(),
		Metrics:   s.reg.Snapshot(),
	}
	first := false
	for _, sh := range s.shards {
		sh.mu.Lock()
		snap.Completed += sh.completed
		snap.Engine.Merge(sh.eng.Stats())
		snap.Latency.Merge(sh.lat)
		snap.UsedBlocks += sh.eng.UsedBlocks()
		snap.Metrics.Merge(sh.eng.Metrics().Snapshot())
		if sh.anyServed {
			if !first || sh.firstArr < snap.FirstArrival {
				snap.FirstArrival = sh.firstArr
			}
			if sh.lastDone > snap.LastComplete {
				snap.LastComplete = sh.lastDone
			}
			first = true
		}
		snap.PerShard = append(snap.PerShard, ShardSnapshot{
			Shard:     sh.id,
			Completed: sh.completed,
			Queued:    len(sh.ch),
			Batches:   sh.batches,
			MaxBatch:  sh.maxBatch,
		})
		sh.mu.Unlock()
	}
	return snap
}

// Traces drains every shard's sampled-trace ring, returning the records
// ordered by service start time. Empty unless Config.TraceSample was
// set. Each record is returned once; a later call returns only traces
// sampled since.
func (s *Server) Traces() []metrics.TraceRecord {
	var out []metrics.TraceRecord
	for _, sh := range s.shards {
		if sh.ring == nil {
			continue
		}
		sh.mu.Lock()
		out = append(out, sh.ring.Drain()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}
