package server

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

const testScale = 0.02

func testTrace(t *testing.T) (*trace.Trace, workload.Profile) {
	t.Helper()
	prof := workload.WebVM()
	tr, _ := workload.Generate(prof, testScale)
	return tr, prof
}

func podFactory(prof workload.Profile) func(int) engine.Engine {
	return func(int) engine.Engine {
		return experiments.NewEngine(experiments.POD, experiments.BuildConfig(prof, testScale))
	}
}

// apiReq converts a trace request to the shared API shape (reads carry
// Chunks, writes carry Content).
func apiReq(r *trace.Request) *Request {
	req := &Request{Time: int64(r.Time), Op: r.Op, LBA: r.LBA}
	if r.Op == trace.Read {
		req.Chunks = r.N
	} else {
		req.Content = r.Content
	}
	return req
}

// submitOne queues r alone and does not wait for it: a batch of one.
func submitOne(srv *Server, r *Request) error {
	return srv.SubmitBatch([]Request{*r})
}

// TestBridgeByteIdenticalToReplay is the determinism bridge of the
// serving layer: one shard serving one client under its FCFS queue must
// leave the engine in exactly the state the direct replay path produces
// from the same requests stamped with the start times the queue gave
// them — every counter, every histogram bucket, every physical block.
func TestBridgeByteIdenticalToReplay(t *testing.T) {
	tr, prof := testTrace(t)

	srv, err := New(Config{
		Shards:    1,
		Timing:    Queued,
		NewEngine: podFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	started := *tr
	started.Requests = slices.Clone(tr.Requests)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		res, err := srv.Do(apiReq(r))
		if err != nil || res.Err != nil || res.Retries != 0 {
			t.Fatalf("request %d: %v / %v, %d retries", i, err, res.Err, res.Retries)
		}
		if res.Shard != 0 {
			t.Fatalf("request %d routed to shard %d with 1 shard", i, res.Shard)
		}
		started.Requests[i].Time = sim.Time(res.Start)
	}
	srv.Close()
	direct := experiments.NewEngine(experiments.POD, experiments.BuildConfig(prof, testScale))
	directRes := replay.Run(direct, &started, 0)

	snap := srv.Stats()
	if !reflect.DeepEqual(snap.Engine, directRes.Stats) {
		t.Fatalf("served stats diverge from direct replay:\n server: %+v\n direct: %+v", snap.Engine, directRes.Stats)
	}
	if snap.UsedBlocks != directRes.UsedBlocks {
		t.Fatalf("used blocks: server %d, direct %d", snap.UsedBlocks, directRes.UsedBlocks)
	}
	if snap.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d", snap.Completed, len(tr.Requests))
	}
	// spot-check the logical view block by block
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Op != trace.Write || i%7 != 0 {
			continue
		}
		for j := 0; j < r.N; j++ {
			lba := r.LBA + uint64(j)
			sg, sok := srv.ReadContent(lba)
			dg, dok := direct.ReadContent(lba)
			if sg != dg || sok != dok {
				t.Fatalf("lba %d: server %d,%v direct %d,%v", lba, sg, sok, dg, dok)
			}
		}
	}
}

// TestConcurrentClientsDrainCompletely drives a sharded server from
// many client goroutines and checks that the graceful drain serves
// everything: completed equals submitted, the work spread across every
// shard, and the merged request counters add up.
func TestConcurrentClientsDrainCompletely(t *testing.T) {
	tr, prof := testTrace(t)
	const shards, clients = 4, 8

	srv, err := New(Config{
		Shards:     shards,
		GranChunks: 256, // fine granules: the sub-sampled trace only touches an address-space prefix
		QueueDepth: 64,
		maxBatch:   16,
		Timing:     Queued,
		NewEngine:  podFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(tr.Requests); i += clients {
				r := &tr.Requests[i]
				if err := submitOne(srv, apiReq(r)); err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Close()

	snap := srv.Stats()
	if snap.Completed != int64(len(tr.Requests)) {
		t.Fatalf("completed %d of %d submitted", snap.Completed, len(tr.Requests))
	}
	if got := snap.Engine.Reads + snap.Engine.Writes; got != int64(len(tr.Requests)) {
		t.Fatalf("merged engine counters %d, want %d", got, len(tr.Requests))
	}
	var sum int64
	for _, ps := range snap.PerShard {
		if ps.Completed == 0 {
			t.Fatalf("shard %d served nothing — routing skew", ps.Shard)
		}
		if ps.Queued != 0 {
			t.Fatalf("shard %d still has %d queued after Close", ps.Shard, ps.Queued)
		}
		sum += ps.Completed
	}
	if sum != snap.Completed {
		t.Fatalf("per-shard completions %d != total %d", sum, snap.Completed)
	}
	if snap.Latency.N() != snap.Completed {
		t.Fatalf("latency samples %d != completions %d", snap.Latency.N(), snap.Completed)
	}
	if snap.Throughput() <= 0 {
		t.Fatal("no aggregate throughput measured")
	}
}

// TestSubmitBatchMatchesSubmit drives the same trace through two
// identically configured servers — one request per submission, then 64
// — and checks the end states agree exactly: batching is a
// submission-path optimization, never a semantic change.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	tr, prof := testTrace(t)
	cfg := func() Config {
		return Config{
			Shards:     4,
			GranChunks: 256,
			Timing:     Queued,
			NewEngine:  podFactory(prof),
		}
	}

	one, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		if err := submitOne(one, apiReq(&tr.Requests[i])); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	one.Close()

	batched, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	const bsize = 64
	var batch []Request
	for i := range tr.Requests {
		batch = append(batch, *apiReq(&tr.Requests[i]))
		if len(batch) == bsize {
			if err := batched.SubmitBatch(batch); err != nil {
				t.Fatalf("batch ending at %d: %v", i, err)
			}
			batch = nil
		}
	}
	if len(batch) > 0 {
		if err := batched.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	batched.Close()

	a, b := one.Stats(), batched.Stats()
	if a.Completed != b.Completed {
		t.Fatalf("completed: submit %d, batch %d", a.Completed, b.Completed)
	}
	if !reflect.DeepEqual(a.Engine, b.Engine) {
		t.Fatalf("engine stats diverge:\n submit: %+v\n batch:  %+v", a.Engine, b.Engine)
	}
	if a.UsedBlocks != b.UsedBlocks {
		t.Fatalf("used blocks: submit %d, batch %d", a.UsedBlocks, b.UsedBlocks)
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.Latency.Percentile(99) != b.Latency.Percentile(99) {
		t.Fatalf("latency distributions diverge: submit mean %.2f p99 %.2f, batch mean %.2f p99 %.2f",
			a.Latency.Mean(), a.Latency.Percentile(99), b.Latency.Mean(), b.Latency.Percentile(99))
	}
}

// TestSubmitBatchValidatesWholeBatch checks that one malformed request
// rejects the batch before anything is enqueued.
func TestSubmitBatchValidatesWholeBatch(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Request{
		{Op: trace.Write, LBA: 0, Content: []chunk.ContentID{1}},
		{Op: trace.Read, LBA: 8, Chunks: 0}, // invalid: zero-length read
	}
	if err := srv.SubmitBatch(batch); err == nil {
		t.Fatal("malformed batch accepted")
	}
	srv.Close()
	if got := srv.Stats().Completed; got != 0 {
		t.Fatalf("%d requests served from a rejected batch", got)
	}
}

// TestRequestsPastTheBoundRefused: Do and SubmitBatch refuse a request
// reaching past the logical-address bound, naming it, before anything
// is routed or enqueued.
func TestRequestsPastTheBoundRefused(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	past := Request{Op: trace.Write, LBA: trace.LBALimit - 1, Content: []chunk.ContentID{1, 2}}
	if _, err := srv.Do(&past); err == nil || !strings.Contains(err.Error(), fmt.Sprint(trace.LBALimit)) {
		t.Fatalf("Do past the bound: %v, want an error naming %d", err, trace.LBALimit)
	}
	batch := []Request{{Op: trace.Write, LBA: 0, Content: []chunk.ContentID{1}}, past}
	if err := srv.SubmitBatch(batch); err == nil || !strings.Contains(err.Error(), fmt.Sprint(trace.LBALimit)) {
		t.Fatalf("SubmitBatch past the bound: %v, want an error naming %d", err, trace.LBALimit)
	}
	srv.Close()
	if got := srv.Stats().Completed; got != 0 {
		t.Fatalf("%d requests served beside a refused one", got)
	}
}

// TestSubmitBatchAfterCloseRefused checks the closed-server path.
func TestSubmitBatchAfterCloseRefused(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	err = srv.SubmitBatch([]Request{{Op: trace.Read, LBA: 0, Chunks: 1}})
	if err != ErrClosed {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
	}
}

// TestShedPolicyBoundsQueue verifies the load-shedding backpressure
// path: with the sole worker paused and a depth-1 queue, surplus
// submissions must be dropped and counted (a Do refused with ErrShed),
// never queued without bound or blocked.
//
// A paused shard holds QueueDepth requests in its queue plus whatever
// its worker drained into the current batch before blocking on the
// shard lock — up to maxBatch, and how many depends on how the
// worker's non-blocking refill interleaves with the submissions.
// maxBatch 1 pins that to the one request the worker blocks with, so
// the bound below is exact instead of a race the test usually wins.
func TestShedPolicyBoundsQueue(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{
		Shards:     1,
		QueueDepth: 1,
		maxBatch:   1,
		Policy:     Shed,
		NewEngine:  podFactory(prof),
	})
	if err != nil {
		t.Fatal(err)
	}

	paused := make(chan struct{})
	release := make(chan struct{})
	go func() {
		sh := srv.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		close(paused)
		<-release
	}()
	<-paused

	sent := 0
	submit := func() {
		t.Helper()
		err := submitOne(srv, &Request{Op: trace.Write, LBA: uint64(sent), Content: []chunk.ContentID{chunk.ContentID(sent + 1)}})
		if err != nil {
			t.Fatalf("submit %d: %v", sent, err)
		}
		sent++
	}
	// the paused shard holds its lock, so Stats would block: read the
	// shed counter itself
	shed := func() int { return int(atomic.LoadInt64(&srv.shed)) }

	// fill the shard: the one request its worker blocks with, one queued
	for sent-shed() < 2 {
		if sent > 10000 {
			t.Fatal("paused shard never filled")
		}
		submit()
		runtime.Gosched()
	}
	// full, and staying full: everything further is shed, and a Do fails
	// fast instead of waiting
	const surplus = 4
	before := shed()
	for i := 0; i < surplus; i++ {
		submit()
	}
	if got := shed() - before; got != surplus {
		t.Fatalf("%d of %d surplus submissions shed", got, surplus)
	}
	if _, err := srv.Do(&Request{Op: trace.Read, LBA: 0, Chunks: 1}); err != ErrShed {
		t.Fatalf("Do against a full queue: %v, want ErrShed", err)
	}
	close(release)
	srv.Close()

	snap := srv.Stats()
	if snap.ShedCount != int64(shed()) || shed() != sent-2+1 {
		t.Fatalf("shed counter %d (Stats %d), want %d submissions + 1 Do", shed(), snap.ShedCount, sent-2)
	}
	if snap.Completed != 2 {
		t.Fatalf("completed %d, want the 2 the shard held", snap.Completed)
	}
}

// TestCloseFlushesBackgroundWork drains a Post-Process engine through
// Close: the offline dedup scanner must run during the graceful drain,
// so duplicate blocks written through the server are merged by the
// time Close returns.
func TestCloseFlushesBackgroundWork(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{
		Shards: 1,
		NewEngine: func(int) engine.Engine {
			return experiments.NewEngine(experiments.PostProcess, experiments.BuildConfig(prof, testScale))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	content := []chunk.ContentID{11, 12, 13}
	if _, err := srv.Do(&Request{Time: 0, Op: trace.Write, LBA: 0, Content: content}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Do(&Request{Time: 1000, Op: trace.Write, LBA: 100, Content: content}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if used := srv.Stats().UsedBlocks; used != 3 {
		t.Fatalf("used %d blocks after drain, want 3 (duplicates merged by the flushed scanner)", used)
	}
}

// TestSubmitAfterCloseRefused checks the closed-server path.
func TestSubmitAfterCloseRefused(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 2, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	_, err = srv.Do(&Request{Op: trace.Read, LBA: 0, Chunks: 1})
	if err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestQueuedTimingMonotonePerShard floods one shard with identical
// arrival stamps and checks the virtual queue: starts never go
// backwards, completions serialize, and sojourn ≥ service.
func TestQueuedTimingMonotonePerShard(t *testing.T) {
	_, prof := testTrace(t)
	srv, err := New(Config{Shards: 1, Timing: Queued, NewEngine: podFactory(prof)})
	if err != nil {
		t.Fatal(err)
	}
	var lastStart int64 = -1
	for i := 0; i < 50; i++ {
		res, err := srv.Do(&Request{Time: 0, Op: trace.Write, LBA: uint64(i * 4),
			Content: []chunk.ContentID{chunk.ContentID(2*i + 1), chunk.ContentID(2*i + 2)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Start < lastStart {
			t.Fatalf("request %d started at %v before previous start %v", i, res.Start, lastStart)
		}
		if res.Sojourn < res.Service {
			t.Fatalf("request %d sojourn %v < service %v", i, res.Sojourn, res.Service)
		}
		lastStart = res.Start
	}
}

// TestServeAllocatesNothing: once its histograms are warm, serving a
// request on a shard allocates nothing of its own. The request handed
// to the engine is the shard's, not a heap object per attempt.
func TestServeAllocatesNothing(t *testing.T) {
	srv := oneShard(t, newFaultyEngine(0, nil), nil)
	defer srv.Close()
	sh := srv.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	req := &Request{Op: trace.Write, Content: []chunk.ContentID{1}}
	serve := func() {
		req.Time += 1000 // after the last completion: no queue wait
		if res := sh.serve(req, &srv.cfg); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for i := 0; i < 100; i++ {
		serve()
	}
	if avg := testing.AllocsPerRun(100, serve); avg != 0 {
		t.Fatalf("serve: %.2f allocs/op, want 0", avg)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil NewEngine accepted")
	}
	if _, err := New(Config{Shards: -1, NewEngine: func(int) engine.Engine { return nil }}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := New(Config{NewEngine: func(int) engine.Engine { return nil }}); err == nil {
		t.Fatal("nil engine accepted")
	}
}

// TestCheckConsistencyAuditsEveryShard: the per-shard half of the audit
// runs each shard's map / allocator / content-model sweep — clean for
// every scheme after a served trace, and a block leaked on one shard
// (allocated, never mapped) is reported with that shard named.
func TestCheckConsistencyAuditsEveryShard(t *testing.T) {
	tr, prof := testTrace(t)
	reqs := tr.Requests[:1500]
	for _, name := range experiments.AllEngines {
		srv, err := New(Config{
			Shards: 3,
			NewEngine: func(int) engine.Engine {
				return experiments.NewEngine(name, experiments.BuildConfig(prof, testScale))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if err := submitOne(srv, apiReq(&reqs[i])); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.CheckConsistency(); err != nil {
			t.Fatalf("%s: clean run flagged: %v", name, err)
		}
		if name != experiments.POD {
			continue
		}
		srv.shards[1].mu.Lock()
		srv.shards[1].base.Alloc.AllocLargest(1)
		srv.shards[1].mu.Unlock()
		err = srv.CheckConsistency()
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("leaked block on shard 1 not reported: %v", err)
		}
	}
}

// TestShardRatioGaugesCarryShardLabel: a server snapshot merges the
// shard engines' registries by summing gauges, so a percentage or
// permille gauge two shards publish under one name adds up to
// nonsense. Every such gauge in a shard engine's registry must carry a
// shard label, or be one of the documented exceptions.
func TestShardRatioGaugesCarryShardLabel(t *testing.T) {
	// icache_index_frac_permille: bench/ reads the merged value and
	// divides it by the engine count.
	exceptions := map[string]bool{"icache_index_frac_permille": true}
	tr, prof := testTrace(t)
	srv, err := New(Config{
		Shards: 2,
		NewEngine: func(int) engine.Engine {
			cfg := experiments.BuildConfig(prof, testScale)
			cfg.Streams = engine.StreamParams{Enabled: true}
			return experiments.NewEngine(experiments.POD, cfg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		r := apiReq(&tr.Requests[i])
		r.Stream = trace.StreamID(i % 3)
		if _, err := srv.Do(r); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	for _, sh := range srv.shards {
		streams := 0
		for name := range sh.eng.Metrics().Snapshot().Gauges {
			base, _, _ := strings.Cut(name, "{")
			if base == "stream_writes" {
				streams++
			}
			if (strings.Contains(base, "pct") || strings.Contains(base, "permille")) &&
				!strings.Contains(name, `shard="`) && !exceptions[base] {
				t.Errorf("shard %d publishes %s without a shard label: merged across shards it sums", sh.id, name)
			}
		}
		if streams < 2 {
			t.Errorf("shard %d accounts %d streams, want the tagged tenants", sh.id, streams)
		}
	}
}

// TestFullShardFailsWritesWithoutRetry: a write its shard's full array
// cannot place fails with engine.ErrNoSpace through Do, on the first
// attempt (a retry finds no more space), and is counted as a failed
// write when it came through SubmitBatch; the shard goroutine lives on.
// A full array is no health fault: more no-space writes than the
// breaker's threshold leave it closed, so the shard still reads back
// what it holds.
func TestFullShardFailsWritesWithoutRetry(t *testing.T) {
	srv, err := New(Config{Shards: 1, NewEngine: func(int) engine.Engine {
		return experiments.NewEngine(experiments.POD, experiments.Platform(4, 2048, raid.RAID5, 16, 1<<20, 0))
	}})
	if err != nil {
		t.Fatal(err)
	}
	var lba uint64
	for ; ; lba++ {
		if lba == 1<<16 {
			t.Fatal("2 048-block disks held 65 536 unique chunks")
		}
		res, err := srv.Do(&Request{Op: trace.Write, LBA: lba, Content: []chunk.ContentID{chunk.ContentID(lba + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == nil {
			continue
		}
		if !errors.Is(res.Err, engine.ErrNoSpace) || res.Retries != 0 {
			t.Fatalf("write %d: %v after %d retries, want ErrNoSpace on the first attempt", lba, res.Err, res.Retries)
		}
		break
	}
	for i := uint64(1); i <= 2*8; i++ { // twice the default breaker threshold
		res, err := srv.Do(&Request{Op: trace.Write, LBA: lba + i, Content: []chunk.ContentID{chunk.ContentID(lba + i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(res.Err, engine.ErrNoSpace) {
			t.Fatalf("no-space write %d: %v, want ErrNoSpace", i, res.Err)
		}
	}
	if res, err := srv.Do(&Request{Op: trace.Read, LBA: 0, Chunks: 1}); err != nil || res.Err != nil {
		t.Fatalf("read of a held block after %d no-space writes: %v, %v", 2*8+1, err, res.Err)
	}
	failed := srv.Stats().Engine.WriteErrors
	if err := srv.SubmitBatch([]Request{{Op: trace.Write, LBA: lba + 2*8 + 1, Content: []chunk.ContentID{chunk.ContentID(lba + 2*8 + 2)}}}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if got := srv.Stats().Engine.WriteErrors; got != failed+1 {
		t.Fatalf("write errors %d after a batched write to the full shard, want %d", got, failed+1)
	}
}
