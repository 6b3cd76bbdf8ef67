package serving

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/chaos"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/fault"
	"github.com/pod-dedup/pod/internal/perf"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/sim"
	"github.com/pod-dedup/pod/internal/trace"
)

// submitBatch is the open-loop client's batch: SubmitBatch buckets it
// per shard and enqueues one entry per touched shard.
const submitBatch = 256

// Run serves the spec's workload through a sharded server, checks what
// the armed features promise, and reports the run; a Report is a run
// that passed every check. The generator is open-loop: each request's
// virtual arrival is fixed up front from Rate, independent of
// completions, so an overloaded configuration shows its congestion as
// queueing delay rather than by slowing the injection. Each client
// goroutine owns a disjoint subset of shards, so every shard receives
// its arrivals in schedule order and the per-shard FCFS model measures
// real congestion, not wall-clock skew between clients.
func Run(spec Spec) (*Report, error) {
	p, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	tr, prof := p.workload()
	n := len(tr.Requests)
	if n == 0 {
		return nil, errors.New("empty trace")
	}
	rep := &Report{Spec: p.Spec, Trace: tr.Name, Scheme: p.scheme, Requests: n}
	arrival := func(int32) sim.Time { return 0 }
	if p.Rate > 0 {
		arrival = func(i int32) sim.Time { return sim.Time(float64(i) * 1e6 / p.Rate) }
		rep.Horizon = sim.Time(float64(n) * 1e6 / p.Rate)
	}
	if p.scenario.Outage {
		// crash a third in, rejoin at two thirds: one trace exercises the
		// healthy, the degraded and the recovered regime
		o := &Outage{Shard: p.CrashShard, CrashAt: sim.Time(p.CrashAtUS), RecoverAt: sim.Time(p.RecoverAtUS)}
		if o.CrashAt == 0 {
			o.CrashAt = rep.Horizon / 3
		}
		if o.RecoverAt == 0 {
			o.RecoverAt = rep.Horizon * 2 / 3
		}
		if o.RecoverAt <= o.CrashAt {
			return nil, refuse("-recover-at-us: shard rejoin at %v is not after the crash at %v (defaults resolve against the %v horizon)",
				o.RecoverAt, o.CrashAt, rep.Horizon)
		}
		rep.Outage = o
	}

	var planErr error
	srv, err := server.New(server.Config{
		Shards:      p.Shards,
		GranChunks:  p.RouteChunks,
		QueueDepth:  p.Queue,
		Policy:      p.policy,
		Timing:      server.Queued,
		TraceSample: p.TraceSample,
		DeadlineUS:  p.DeadlineUS,
		RetrySeed:   p.ChaosSeed,
		GlobalFP:    p.Tier,
		NewEngine: func(shard int) engine.Engine {
			pl := experiments.ProfilePlatform(prof, p.Scale)
			if p.StreamProfile != "" {
				// the adversarial pools are tuned against the profile's
				// DRAM budget; scaling it with the trace would break the
				// pool / index-partition ratios the mix is built around
				pl.MemoryBytes = prof.MemoryBytes
			}
			e, err := experiments.Build(p.scheme, pl, p.axes, nil)
			if err == nil && p.Chaos != "" {
				// one fault plan against every shard's array; the
				// transient coin varies per shard via the seed
				arr := e.(*engine.Pipeline).Base().Array
				var sched fault.Schedule
				if sched, err = chaos.Build(p.Chaos, arr.NumDisks(), arr.PerDiskBlocks(),
					rep.Horizon, p.ChaosSeed^uint64(shard)*0x9E3779B97F4A7C15); err == nil {
					arr.SetInjector(fault.NewInjector(sched, arr.NumDisks()))
				}
			}
			if err != nil {
				planErr = err
				return nil
			}
			return e
		},
	})
	if err != nil {
		return nil, errors.Join(planErr, err)
	}

	d := driver{srv: srv, reqs: tr.Requests, arrival: arrival, outage: rep.Outage}
	if p.Chaos != "" {
		d.oracle = chaos.NewOracle(srv.Shard)
	}
	// one routing pass partitions the trace per client; trace order keeps
	// each shard's arrivals in schedule order within its owning client
	parts := make([][]int32, p.Clients)
	for i := range tr.Requests {
		c := srv.Shard(tr.Requests[i].LBA) % p.Clients
		parts[c] = append(parts[c], int32(i))
	}
	errs := make([]error, p.Clients+1)
	var track perf.Tracker
	track.Measure("podload", func() {
		var wg sync.WaitGroup
		for c := range parts {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = d.client(parts[c])
			}(c)
		}
		wg.Wait()
		if o := rep.Outage; o != nil && o.Fired {
			// backstop: arrivals that never cross the rejoin threshold must
			// still rejoin before Close, so settlement sees a whole cluster
			o.rejoin(srv)
		}
		errs[p.Clients] = srv.Close()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rep.Snap = srv.Stats()
	rep.Snap.Metrics.Traces = srv.Traces()
	rep.ReadFailures = d.readFails.Load()
	rep.setDrive(track.Entries()[0])
	if rep.Snap.Completed == 0 {
		return nil, errors.New("zero completed requests")
	}
	if err := rep.verify(p, srv, d.oracle); err != nil {
		return nil, err
	}
	return rep, nil
}

// verify runs the post-drain checks in report order.
func (rep *Report) verify(p plan, srv *server.Server, oracle *chaos.Oracle) error {
	if p.Streams {
		var tagged int64
		if rep.Streams, tagged = streamVerdicts(rep.Snap.Metrics.Gauges); tagged == 0 {
			return errors.New("-streams: no stream-tagged writes reached any engine")
		}
	}
	if p.Tier {
		// every shard's own invariants, then every remote reference against
		// a live, correctly pinned canonical; Close has settled the protocol
		if err := srv.CheckConsistency(); err != nil {
			return fmt.Errorf("globalfp consistency: %w", err)
		}
	}
	if o := rep.Outage; o != nil {
		switch down := srv.DownShards(); {
		case o.err != nil:
			return fmt.Errorf("shard outage: %w", o.err)
		case !o.Fired:
			return errors.New("shardcrash: the crash threshold was never reached (trace too short for the window?)")
		case len(down) > 0:
			return fmt.Errorf("shardcrash: shards %v still down after the run", down)
		}
	}
	if oracle != nil {
		v := &OracleVerdict{}
		v.Acked, v.FailedWrites, v.Indeterminate, v.Spilled = oracle.Stats()
		check := func(when string) (int, error) {
			viol, checked := oracle.Check(srv.ReadContent)
			if len(viol) > 0 {
				return 0, fmt.Errorf("chaos oracle%s: %d integrity violations (first: %s)", when, len(viol), viol[0])
			}
			return checked, nil
		}
		var err error
		if v.Verified, err = check(""); err != nil {
			return err
		}
		if p.BGDedup {
			// With the scanner armed, also prove its interrupted pass is
			// crash-consistent: power-fail the node, rebuild every shard
			// from its NVRAM journal, re-run the oracle on the recovered
			// state and audit every shard (with the tier, the cross-shard
			// references against the recovered ref pins too).
			if v.Replayed, err = srv.CrashAndRecover(); err != nil {
				return fmt.Errorf("crash recovery: %w", err)
			}
			if v.Reverified, err = check(" after recovery"); err != nil {
				return err
			}
			if err := srv.CheckConsistency(); err != nil {
				return fmt.Errorf("after recovery: %w", err)
			}
		}
		rep.Oracle = v
	}
	m := rep.Snap.Metrics
	return errors.Join(writeFile(p.MetricsOut, m.WriteJSON), writeFile(p.MetricsProm, m.WritePrometheus))
}

// writeFile writes one snapshot encoding to path ("" = nowhere).
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// driver is the client side of one run.
type driver struct {
	srv       *server.Server
	reqs      []trace.Request
	arrival   func(int32) sim.Time
	oracle    *chaos.Oracle // nil = open loop
	outage    *Outage
	readFails atomic.Int64
}

// request is trace request i, stamped with its scheduled arrival.
func (d *driver) request(i int32) server.Request {
	req := api.FromTrace(d.reqs[i])
	req.Time = int64(d.arrival(i))
	return req
}

// client submits one client's requests: open-loop in batches, or —
// when an oracle wants each outcome — closed-loop, one Do at a time.
func (d *driver) client(idx []int32) error {
	if d.oracle == nil {
		// ownership of a batch transfers on submit (the server retains
		// pointers into it), so each one is allocated fresh
		for len(idx) > 0 {
			batch := make([]server.Request, min(len(idx), submitBatch))
			for j := range batch {
				batch[j] = d.request(idx[j])
			}
			if err := d.srv.SubmitBatch(batch); err != nil {
				return err
			}
			idx = idx[len(batch):]
		}
		return nil
	}
	for _, i := range idx {
		req := d.request(i)
		if o := d.outage; o != nil && d.srv.Shard(req.LBA) == o.Shard {
			switch t := sim.Time(req.Time); {
			case t >= o.RecoverAt:
				o.rejoin(d.srv)
			case t >= o.CrashAt:
				o.crash(d.srv)
			}
		}
		res, err := d.srv.Do(&req)
		switch {
		case err == server.ErrShed: // counted by the server
		case err != nil:
			return err
		case req.Op == trace.Write && res.Err == nil:
			d.oracle.RecordWrite(&req, res.Shard)
		case req.Op == trace.Write:
			// the engine was touched iff any attempt ran (breaker and
			// deadline refusals consume no service time)
			d.oracle.RecordFailedWrite(&req, res.Shard, res.Retries > 0 || res.Service > 0)
		case res.Err != nil:
			d.readFails.Add(1)
		}
	}
	return nil
}

// Outage is one shard crashed mid-run and rejoined. The triggers key on
// the victim shard's own arrivals: one client submits that stream in
// order, so the window covers a deterministic slice of it (pre-crash
// served and journaled, in-window refused, post-rejoin served) however
// far the other clients race ahead in wall time — and only that client,
// then the backstop, ever touches the state below.
type Outage struct {
	Shard              int
	CrashAt, RecoverAt sim.Time
	Fired              bool // the crash threshold was reached
	Replayed           int  // journal records replayed at the rejoin

	rejoined bool
	err      error
}

func (o *Outage) crash(srv *server.Server) {
	if !o.Fired {
		o.Fired = true
		o.err = srv.CrashShard(o.Shard)
	}
}

// rejoin pulls the crash in first, so a stream that skips the whole
// crash window still produces a well-ordered outage.
func (o *Outage) rejoin(srv *server.Server) {
	if o.crash(srv); !o.rejoined && o.err == nil {
		o.rejoined = true
		o.Replayed, o.err = srv.RecoverShard(o.Shard)
	}
}

// setDrive records the drive span with the figures a -bench-json
// trajectory entry carries.
func (rep *Report) setDrive(e perf.Entry) {
	s := &rep.Snap
	e.Extra = map[string]float64{
		"shards":             float64(rep.Spec.Shards),
		"clients":            float64(rep.Spec.Clients),
		"rate_rps":           rep.Spec.Rate,
		"completed":          float64(s.Completed),
		"shed":               float64(s.ShedCount),
		"throughput_sim":     s.Throughput(),
		"throughput_wall":    float64(s.Completed) / (e.WallMS / 1000),
		"p50_sojourn_us":     s.Latency.Percentile(50),
		"p95_sojourn_us":     s.Latency.Percentile(95),
		"p99_sojourn_us":     s.Latency.Percentile(99),
		"mean_sojourn_us":    s.Latency.Mean(),
		"gomaxprocs_value":   float64(runtime.GOMAXPROCS(0)),
		"writes_removed_pct": s.Engine.WriteRemovalPct(),
	}
	rep.Drive = e
}
