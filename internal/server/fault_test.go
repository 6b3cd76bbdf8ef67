package server

import (
	"strings"
	"sync"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// faultyEngine is a scripted engine: it fails the first failN requests
// with the configured error, then succeeds, always charging svc
// microseconds. panicAt >= 0 makes request number panicAt (0-based)
// panic instead.
type faultyEngine struct {
	svc     sim.Duration
	failN   int
	err     error
	panicAt int
	calls   int
	reg     *metrics.Registry
	st      *engine.Stats
}

func newFaultyEngine(failN int, err error) *faultyEngine {
	return &faultyEngine{svc: 100, failN: failN, err: err, panicAt: -1,
		reg: metrics.NewRegistry(), st: engine.NewStats()}
}

func (f *faultyEngine) Name() string { return "faulty" }
func (f *faultyEngine) serve() (sim.Duration, error) {
	f.calls++
	if f.panicAt >= 0 && f.calls-1 == f.panicAt {
		panic("scripted engine panic")
	}
	if f.calls <= f.failN {
		return f.svc, f.err
	}
	return f.svc, nil
}
func (f *faultyEngine) Write(*trace.Request) (sim.Duration, error) { return f.serve() }
func (f *faultyEngine) Read(*trace.Request) (sim.Duration, error)  { return f.serve() }
func (f *faultyEngine) Stats() *engine.Stats                       { return f.st }
func (f *faultyEngine) Metrics() *metrics.Registry                 { return f.reg }
func (f *faultyEngine) UsedBlocks() uint64                         { return 0 }
func (f *faultyEngine) ReadContent(uint64) (uint64, bool)          { return 0, false }

func transientErr() error {
	return fault.New(fault.KindTransientIO, fault.Transient, 0, 0, 0)
}

func oneShard(t *testing.T, eng *faultyEngine, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Shards: 1, NewEngine: func(int) engine.Engine { return eng }}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func readReq(at int64) *Request {
	return &Request{Time: at, Op: trace.Read, LBA: 0, Chunks: 1}
}

// TestTransientFaultRetriedToSuccess: two transient failures, then
// success — the request is acknowledged with Retries=2 and its virtual
// completion includes service time of every attempt plus backoff.
func TestTransientFaultRetriedToSuccess(t *testing.T) {
	eng := newFaultyEngine(2, transientErr())
	srv := oneShard(t, eng, nil)
	defer srv.Close()

	res, err := srv.Do(readReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("retried request failed: %v", res.Err)
	}
	if res.Retries != 2 || eng.calls != 3 {
		t.Fatalf("retries=%d calls=%d, want 2 and 3", res.Retries, eng.calls)
	}
	// three attempts à 100µs plus two non-zero backoffs
	if res.Complete < 3*100+2*200 {
		t.Fatalf("completion %d does not include attempts and backoff", res.Complete)
	}
}

// TestRetryBackoffDeterministic: identical configurations produce
// identical completion times, and a different seed shifts the jitter.
func TestRetryBackoffDeterministic(t *testing.T) {
	run := func(seed uint64) int64 {
		srv := oneShard(t, newFaultyEngine(3, transientErr()), func(c *Config) { c.RetrySeed = seed })
		defer srv.Close()
		res, err := srv.Do(readReq(0))
		if err != nil || res.Err != nil {
			t.Fatalf("%v / %v", err, res.Err)
		}
		return res.Complete
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatalf("same seed, different completions: %d vs %d", a, b)
	}
	if a == c {
		t.Fatal("seed change did not move the jitter")
	}
}

// TestPermanentFaultNotRetried: a permanent error is terminal on the
// first attempt.
func TestPermanentFaultNotRetried(t *testing.T) {
	eng := newFaultyEngine(1000, fault.New(fault.KindDataLoss, fault.Permanent, 0, 0, 0))
	srv := oneShard(t, eng, nil)
	defer srv.Close()

	res, err := srv.Do(readReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Retries != 0 || eng.calls != 1 {
		t.Fatalf("err=%v retries=%d calls=%d", res.Err, res.Retries, eng.calls)
	}
	if fault.IsTransient(res.Err) {
		t.Fatal("permanent error reported transient")
	}
}

// TestRetriesExhaustedReportsTransient: when maxRetries runs out the
// last transient error surfaces in the result.
func TestRetriesExhaustedReportsTransient(t *testing.T) {
	eng := newFaultyEngine(1<<30, transientErr())
	srv := oneShard(t, eng, func(c *Config) { c.maxRetries = 2 })
	defer srv.Close()

	res, err := srv.Do(readReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !fault.IsTransient(res.Err) {
		t.Fatalf("want transient terminal error, got %v", res.Err)
	}
	if res.Retries != 2 || eng.calls != 3 {
		t.Fatalf("retries=%d calls=%d", res.Retries, eng.calls)
	}
}

// TestDeadlineBoundsRetries: with a tight deadline the retry loop stops
// with KindDeadlineExceeded instead of burning the full retry budget.
func TestDeadlineBoundsRetries(t *testing.T) {
	eng := newFaultyEngine(1<<30, transientErr())
	srv := oneShard(t, eng, func(c *Config) {
		c.maxRetries = 100
		c.DeadlineUS = 450 // one 100µs attempt + ~200µs backoff fits, two don't
	})
	defer srv.Close()

	res, err := srv.Do(readReq(0))
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := res.Err.(*fault.Error)
	if !ok || fe.Kind != fault.KindDeadlineExceeded {
		t.Fatalf("want deadline exceeded, got %v", res.Err)
	}
	if eng.calls >= 100 {
		t.Fatalf("deadline did not bound retries: %d calls", eng.calls)
	}
}

// TestDeadlineExceededByQueueWait: a request whose queue wait alone
// blows the deadline fails without touching the engine.
func TestDeadlineExceededByQueueWait(t *testing.T) {
	eng := newFaultyEngine(0, nil)
	eng.svc = 10000 // first request occupies the shard for 10ms
	srv := oneShard(t, eng, func(c *Config) { c.DeadlineUS = 1000 })
	defer srv.Close()

	if _, err := srv.Do(readReq(0)); err != nil {
		t.Fatal(err)
	}
	calls := eng.calls
	res, err := srv.Do(readReq(1)) // arrives at 1µs, shard busy until 10ms
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := res.Err.(*fault.Error)
	if !ok || fe.Kind != fault.KindDeadlineExceeded {
		t.Fatalf("want deadline exceeded, got %v", res.Err)
	}
	if eng.calls != calls {
		t.Fatal("deadlined request still reached the engine")
	}
	if res.Service != 0 {
		t.Fatalf("refused request charged %dus service", res.Service)
	}
}

// TestBreakerOpensAndRecovers drives a shard through failure into an
// open breaker, checks shedding, then lets the cooldown pass and checks
// the half-open probe closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	eng := newFaultyEngine(3, fault.New(fault.KindDataLoss, fault.Permanent, 0, 0, 0))
	srv := oneShard(t, eng, func(c *Config) {
		c.breakerThreshold = 3
		c.breakerCooldownUS = 1000
		c.maxRetries = -1
	})
	defer srv.Close()

	// three consecutive terminal failures trip the breaker
	var last Result
	for i := 0; i < 3; i++ {
		res, err := srv.Do(readReq(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == nil {
			t.Fatalf("request %d unexpectedly succeeded", i)
		}
		last = res
	}
	calls := eng.calls

	// while open: shed with KindUnavailable, engine untouched
	res, err := srv.Do(readReq(last.Complete + 1))
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := res.Err.(*fault.Error)
	if !ok || fe.Kind != fault.KindUnavailable {
		t.Fatalf("open breaker returned %v", res.Err)
	}
	if eng.calls != calls {
		t.Fatal("shed request reached the engine")
	}

	// past the cooldown: the probe runs against the now-healthy engine
	// and closes the breaker
	res, err = srv.Do(readReq(last.Complete + 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("half-open probe failed: %v", res.Err)
	}
	res, err = srv.Do(readReq(last.Complete + 3000))
	if err != nil || res.Err != nil {
		t.Fatalf("breaker did not close: %v / %v", err, res.Err)
	}
}

// TestWorkerPanicFailsDrainAndCloseReportsIt: a panicking engine must
// not wedge the server — queued requests complete with KindUnavailable,
// and Close reports the failure (satellite: Close returns first error).
func TestWorkerPanicFailsDrainAndCloseReportsIt(t *testing.T) {
	eng := newFaultyEngine(0, nil)
	eng.panicAt = 0
	srv := oneShard(t, eng, nil)

	res, err := srv.Do(readReq(0))
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := res.Err.(*fault.Error)
	if !ok || fe.Kind != fault.KindUnavailable {
		t.Fatalf("request on panicked shard returned %v", res.Err)
	}

	cerr := srv.Close()
	if cerr == nil || !strings.Contains(cerr.Error(), "panicked") {
		t.Fatalf("Close did not report the worker panic: %v", cerr)
	}
}

// TestCloseIdempotentAndConcurrent: many concurrent Close calls, all
// return the same (nil) error, no panic, no double-drain.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	writeAt(t, srv, 0, 0, 1)

	const closers = 8
	errs := make([]error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = srv.Close()
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("closer %d: %v", i, e)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("late Close: %v", err)
	}
	if _, err := srv.Do(readReq(0)); err != ErrClosed {
		t.Fatalf("Do after Close: %v", err)
	}
}

// degradedFactory builds POD engines whose arrays lose a disk at
// virtual time failAt — the concurrent degraded-serving fixture.
func degradedFactory(prof workload.Profile, failAt sim.Time) func(int) engine.Engine {
	return func(shard int) engine.Engine {
		cfg := experiments.BuildConfig(prof, testScale)
		cfg.Array.SetInjector(fault.NewInjector(fault.Schedule{
			Fails: []fault.DiskFail{{Disk: 1, At: failAt}},
		}, cfg.Array.NumDisks()))
		return experiments.NewEngine(experiments.POD, cfg)
	}
}

// TestDegradedRaid5ServesConcurrently (satellite): every shard's array
// loses a disk mid-run while multiple clients keep reading and writing;
// all requests must complete without error (reconstruction + rebuild
// absorb the failure) and the degraded reads must be visible in the
// merged metrics.
func TestDegradedRaid5ServesConcurrently(t *testing.T) {
	tr, prof := testTrace(t)
	const shards, clients = 2, 4
	srv, err := New(Config{Shards: shards, NewEngine: degradedFactory(prof, 1)})
	if err != nil {
		t.Fatal(err)
	}

	reqs := tr.Requests
	if len(reqs) > 2000 {
		reqs = reqs[:2000]
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range reqs {
				if i%clients != c {
					continue
				}
				res, err := srv.Do(apiReq(&reqs[i]))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if res.Err != nil {
					t.Errorf("request %d failed under degraded array: %v", i, res.Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	snap := srv.Stats()
	if snap.Completed != int64(len(reqs)) {
		t.Fatalf("completed %d of %d", snap.Completed, len(reqs))
	}
	g := snap.Metrics.Gauges
	if g["raid_fail_events"] != shards {
		t.Fatalf("fail events = %d, want %d", g["raid_fail_events"], shards)
	}
	if g["raid_degraded_reads"] == 0 {
		t.Fatal("no degraded reads recorded")
	}
	if g["raid_rebuild_ios"] == 0 {
		t.Fatal("rebuild generated no I/O")
	}
}

// TestCrashAndRecoverWithQueuedBacklog (satellite): Close is called
// while shard queues still hold requests; the drain must serve them,
// and every acknowledged write must survive crash recovery.
func TestCrashAndRecoverWithQueuedBacklog(t *testing.T) {
	prof := workload.WebVM()
	srv, err := New(Config{
		Shards:     2,
		QueueDepth: 256,
		NewEngine:  selectDedupeFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}

	// fire-and-forget submissions: Close runs while these are queued
	const writes = 300
	want := map[uint64]chunk.ContentID{}
	for i := 0; i < writes; i++ {
		lba := uint64(i) * 3 % (2 * DefaultGranChunks)
		id := chunk.ContentID(i + 1)
		if err := submitOne(srv, &Request{Time: int64(i) * 10, Op: trace.Write, LBA: lba,
			Content: []chunk.ContentID{id}}); err != nil {
			t.Fatal(err)
		}
		want[lba] = id
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap := srv.Stats()
	if snap.Completed != writes {
		t.Fatalf("drain served %d of %d queued writes", snap.Completed, writes)
	}

	if _, err := srv.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	for lba, id := range want {
		got, ok := srv.ReadContent(lba)
		if !ok || got != uint64(id) {
			t.Fatalf("lba %d after recovery: %d,%v want %d", lba, got, ok, id)
		}
	}
}

// TestRetryConfigValidation covers the fault-policy settings a caller
// can get wrong (the retry and breaker limits are not settable from
// outside the package, so there is nothing of theirs to refuse).
func TestRetryConfigValidation(t *testing.T) {
	eng := newFaultyEngine(0, nil)
	if _, err := New(Config{Shards: 1, DeadlineUS: -1, NewEngine: func(int) engine.Engine { return eng }}); err == nil {
		t.Error("negative deadline accepted")
	}
	// maxRetries -1 means "no retries", and is valid
	srv := oneShard(t, newFaultyEngine(1, transientErr()), func(c *Config) { c.maxRetries = -1 })
	defer srv.Close()
	res, err := srv.Do(readReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Retries != 0 {
		t.Fatalf("retries disabled but err=%v retries=%d", res.Err, res.Retries)
	}
}
