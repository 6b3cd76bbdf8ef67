// Package serving runs the full sharded front end (internal/server),
// not just a bare engine replay. A run is a value: a Spec says what to
// serve and which beyond-paper axes are on, Validate states every
// refusal once, Run drives the server and checks what the armed
// features promise, and the Report renders the verdict. cmd/podload is
// flags → Spec → Run → Report; the smoke table, the chaos scenarios and
// the tier sweep are Spec values over the same runner.
//
// It lives in its own package because internal/server's tests import
// the root experiments package for engine factories — an experiment
// importing server back into internal/experiments would close that
// cycle.
package serving

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chaos"
	"github.com/pod-dedup/pod/internal/experiments"
	"github.com/pod-dedup/pod/internal/server"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// Spec describes one serving run. Each field is the podload flag it is
// named after, and nothing is defaulted except where a zero says so.
type Spec struct {
	// The workload: a trace (mixed, web-vm, homes, mail) at Scale, or —
	// with Streams — an adversarial multi-tenant StreamProfile
	// (adversarial, scan) that replaces it.
	Trace, StreamProfile string
	Scale                float64

	Scheme  string
	Shards  int
	Clients int     // goroutines, client c owning the shards ≡ c mod Clients; 0 or > Shards = one per shard
	Rate    float64 // open-loop arrivals per simulated second; 0 floods every arrival at t=0

	Chunking string
	Streams  bool // per-stream index-cache apportionment on every shard
	BGDedup  bool // background dedup scanner on every shard
	Tier     bool // -globalfp: the global fingerprint tier; arms BGDedup

	// Chaos names an internal/chaos scenario: its fault plan runs against
	// every shard's array, the clients go closed-loop to feed the
	// read-back oracle, and whatever else the scenario arms is armed.
	Chaos     string
	ChaosSeed uint64
	// The shard outage of the scenarios that have one: the victim (-1 =
	// the last shard) and its window in virtual µs (0 = a third and two
	// thirds of the arrival horizon).
	CrashShard             int
	CrashAtUS, RecoverAtUS int64

	// server.Config passthroughs; 0 = the server's default.
	Queue       int
	Policy      string
	RouteChunks uint64
	DeadlineUS  int64
	TraceSample int

	// Files to receive the merged snapshot as JSON and Prometheus text.
	MetricsOut, MetricsProm string
}

// A Refusal is the reason a Spec will not be run — a value out of range
// or a combination of axes that means nothing — naming the flag at fault.
type Refusal string

func (r Refusal) Error() string { return string(r) }

func refuse(format string, args ...any) error { return Refusal(fmt.Sprintf(format, args...)) }

// plan is a validated Spec: names resolved, everything the scenario
// arms switched on.
type plan struct {
	Spec
	scheme   string
	policy   server.Policy
	axes     experiments.Axes // what every shard's engine switches on
	scenario chaos.Scenario   // zero without Chaos
}

// Validate reports why the spec cannot be run, or nil.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

func (s Spec) resolve() (plan, error) {
	p := plan{Spec: s}
	var err error
	if p.policy, err = server.ParsePolicy(s.Policy); err != nil {
		return p, refuse("-policy: %v", err)
	}
	if p.scheme, err = experiments.ParseScheme(s.Scheme); err != nil {
		return p, refuse("-%v", err) // the error leads with "scheme"
	}
	if p.axes.Chunking, err = cdc.ParseAlgo(s.Chunking); err != nil {
		return p, refuse("-chunking: %v", err)
	}
	for _, f := range []struct {
		bad        bool
		flag, want string
	}{
		{!(s.Scale > 0), "-scale", "must be > 0"},
		{s.Shards < 1, "-shards", "must be at least 1"},
		{s.Clients < 0, "-clients", "must be >= 0 (0 = one per shard)"},
		{s.Queue < 0, "-queue", "must be >= 0 (0 = the server default)"},
		{s.DeadlineUS < 0, "-deadline-us", "must be >= 0"},
		{s.TraceSample < 0, "-trace-sample", "must be >= 0"},
		{s.CrashAtUS < 0, "-crash-at-us", "must be >= 0"},
		{s.RecoverAtUS < 0, "-recover-at-us", "must be >= 0"},
	} {
		if f.bad {
			return p, refuse("%s %s", f.flag, f.want)
		}
	}
	if p.Clients == 0 || p.Clients > s.Shards {
		p.Clients = s.Shards
	}

	switch s.StreamProfile {
	case "":
		if _, ok := workload.ByName(s.Trace); !ok && s.Trace != "mixed" {
			return p, refuse("unknown -trace %q (want mixed, web-vm, homes, or mail)", s.Trace)
		}
		if s.Streams && s.Trace != "mixed" {
			return p, refuse("-streams needs a stream-tagged workload; -trace %s is untagged (use -trace mixed or -stream-profile)", s.Trace)
		}
	case "adversarial", "scan":
		if !s.Streams {
			return p, refuse("-stream-profile requires -streams")
		}
	default:
		return p, refuse("unknown -stream-profile %q (want adversarial or scan)", s.StreamProfile)
	}

	if s.Chaos != "" {
		if p.scenario, err = chaos.Lookup(s.Chaos); err != nil {
			return p, refuse("-chaos: %v", err)
		}
		if p.axes.Chunking != cdc.Fixed4K {
			// the oracle compares each LBA against the ContentID the trace
			// wrote there; CDC stores derived chunk IDs
			return p, refuse("-chunking %s is incompatible with -chaos (the read-back oracle checks trace ContentIDs per LBA)", p.axes.Chunking)
		}
		if s.Rate <= 0 {
			return p, refuse("-chaos requires -rate > 0 (faults are placed within the arrival horizon)")
		}
		if p.scenario.Outage && s.Shards < 2 {
			return p, refuse("-chaos %s requires -shards >= 2 (the surviving shards must keep serving)", s.Chaos)
		}
	}
	p.Tier = s.Tier || p.scenario.Tier
	p.BGDedup = s.BGDedup || p.scenario.Scanner || p.Tier // the tier's shard agents wrap the scanner
	p.axes.Streams, p.axes.BGDedup, p.axes.Tier, p.axes.Shards = s.Streams, p.BGDedup, p.Tier, s.Shards
	if err := experiments.CheckAxes(p.scheme, p.axes); err != nil {
		return p, refuse("-%v", err) // the error leads with the axis, which is the flag
	}

	// a bad victim or an inverted window would otherwise surface mid-run
	// as a CrashShard error, or as a crash that never fires
	switch {
	case !p.scenario.Outage:
		if s.CrashShard != -1 || s.CrashAtUS != 0 || s.RecoverAtUS != 0 {
			return p, refuse("-crash-shard/-crash-at-us/-recover-at-us require a shard-outage scenario (-chaos shardcrash)")
		}
	case s.CrashShard == -1:
		p.CrashShard = s.Shards - 1
	case s.CrashShard < 0 || s.CrashShard >= s.Shards:
		return p, refuse("-crash-shard %d out of range [0, %d)", s.CrashShard, s.Shards)
	}
	if s.CrashAtUS != 0 && s.RecoverAtUS != 0 && s.RecoverAtUS <= s.CrashAtUS {
		return p, refuse("-recover-at-us %d must be after -crash-at-us %d", s.RecoverAtUS, s.CrashAtUS)
	}
	return p, nil
}

// workload generates the trace and the profile its engines are sized from.
func (p plan) workload() (*trace.Trace, workload.Profile) {
	merged := func(tr *trace.Trace, _ int, dims workload.MixedDims) (*trace.Trace, workload.Profile) {
		return tr, workload.Profile{Name: tr.Name, FootprintChunks: dims.FootprintChunks, MemoryBytes: dims.MemoryBytes}
	}
	switch {
	case p.StreamProfile == "adversarial":
		return merged(workload.AdversarialMix(p.Scale))
	case p.StreamProfile == "scan":
		return merged(workload.AdversarialScanMix(p.Scale))
	case p.Trace == "mixed":
		return merged(workload.MixedTrace(p.Scale))
	}
	prof, _ := workload.ByName(p.Trace)
	tr, _ := workload.Generate(prof, p.Scale)
	return tr, prof
}
