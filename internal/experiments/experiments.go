// Package experiments defines one constructor per table and figure of
// the POD paper's evaluation (§II and §IV). Each experiment builds the
// engines over identical substrates, replays the synthetic FIU-like
// traces, and reports the same rows or series the paper plots, so
// cmd/podbench and the root benchmark suite can regenerate every
// artifact from one place.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pod-dedup/pod/internal/baseline"
	"github.com/pod-dedup/pod/internal/bgdedup"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/disk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// Engine names, in the paper's presentation order.
const (
	Native       = "Native"
	FullDedupe   = "Full-Dedupe"
	IDedup       = "iDedup"
	SelectDedupe = "Select-Dedupe"
	POD          = "POD"
	IODedup      = "I/O-Dedup"
	PostProcess  = "Post-Process"
	// PODBG is POD with the idle-aware background out-of-line
	// deduplication scanner attached (capacity-reclamation experiments;
	// not part of the paper's engine set).
	PODBG = "POD+bgdedup"
)

// AllEngines is every implemented scheme, including the two additional
// Table I baselines (I/O Deduplication and post-processing dedup).
var AllEngines = []string{Native, IODedup, PostProcess, FullDedupe, IDedup, SelectDedupe, POD}

// Fig8Engines are the schemes of Figures 8–10.
var Fig8Engines = []string{Native, FullDedupe, IDedup, SelectDedupe}

// Fig11Engines adds POD (Figure 11).
var Fig11Engines = []string{Native, FullDedupe, IDedup, SelectDedupe, POD}

// TraceNames are the evaluation traces in Table II order.
var TraceNames = []string{"web-vm", "homes", "mail"}

// Platform assembles a simulated storage platform — the one place a
// disk array is built: disks spindles of diskBlocks 4 KiB blocks each
// under the given RAID level with a stripe unit of stripeChunks chunks,
// memoryBytes of storage-cache DRAM and nvramBytes of Map-table journal.
// Every other engine.Config field is the caller's to set on the result.
func Platform(disks int, diskBlocks uint64, level raid.Level, stripeChunks uint64, memoryBytes int64, nvramBytes int) engine.Config {
	ds := make([]*disk.Disk, disks)
	for i := range ds {
		ds[i] = disk.New(disk.DefaultParams(diskBlocks))
	}
	return engine.Config{
		Array:       raid.New(level, ds, stripeChunks),
		MemoryBytes: memoryBytes,
		NVRAMBytes:  nvramBytes,
	}
}

// BuildConfig assembles the experimental platform of §IV-A for one
// trace: a 4-disk RAID5 array with a 64 KB stripe unit (16 chunks) and
// the trace's DRAM budget, split 50/50 between index and read cache
// unless an engine adapts it.
func BuildConfig(p workload.Profile, memScale float64) engine.Config {
	return profileConfig(p, memScale, p.FootprintChunks/2, raid.RAID5, 16)
}

// profileConfig is BuildConfig with the array shape left open (the
// ablations vary disk size, layout and stripe unit under one trace's
// cache and journal budgets). memScale shrinks the cache budget along
// with the trace scale so that sub-sampled runs keep the paper's cache
// pressure (an unscaled cache would hold the whole scaled-down working
// set and hide every miss-path effect).
func profileConfig(p workload.Profile, memScale float64, diskBlocks uint64, level raid.Level, stripeChunks uint64) engine.Config {
	mem := int64(float64(p.MemoryBytes) * memScale)
	if mem < 1<<18 {
		mem = 1 << 18
	}
	return Platform(4, diskBlocks, level, stripeChunks, mem, int(p.FootprintChunks*40))
}

// dimsConfig is the fixed platform of the merged-trace experiments
// (stream sweep, chunking axis): the §IV-A array shape over the mix's
// footprint with the DRAM budget its pools are tuned against —
// deliberately NOT scaled with the trace; the pool / partition ratios
// are the experiment.
func dimsConfig(dims workload.MixedDims) engine.Config {
	return Platform(4, dims.FootprintChunks, raid.RAID5, 16, dims.MemoryBytes, int(dims.FootprintChunks*40))
}

// NewEngine constructs a scheme by name over cfg.
func NewEngine(name string, cfg engine.Config) engine.Engine {
	switch name {
	case Native:
		return baseline.NewNative(cfg)
	case FullDedupe:
		return baseline.NewFullDedupe(cfg)
	case IDedup:
		return baseline.NewIDedup(cfg)
	case SelectDedupe:
		return core.NewSelectDedupe(cfg)
	case POD:
		return core.NewPOD(cfg)
	case IODedup:
		return baseline.NewIODedup(cfg)
	case PostProcess:
		return baseline.NewPostProcess(cfg)
	case PODBG:
		e := core.NewPOD(cfg)
		bgdedup.New(e.Base(), bgdedup.Params{})
		return e
	default:
		panic(fmt.Sprintf("experiments: unknown engine %q", name))
	}
}

// Axes are the beyond-paper features a run switches on over a scheme.
type Axes struct {
	Chunking cdc.Algo
	Streams  bool // per-stream index-cache apportionment
	BGDedup  bool // background out-of-line dedup scanner
	Tier     bool // global fingerprint tier across Shards shards
	Shards   int
}

// CheckAxes states the scheme × feature rules once, for the library
// facade, the replay CLI and the serving run spec alike. scheme is a
// canonical engine name; the error leads with the axis at fault under
// the name its command-line flag has.
func CheckAxes(scheme string, a Axes) error {
	if a.Chunking != cdc.Fixed4K && scheme == Native {
		return fmt.Errorf("chunking %s needs a deduplicating scheme; %s never consults chunk content", a.Chunking, Native)
	}
	// These complement the selective inline path (the tier's agents
	// wrap the scanner, the scanner reclaims what the selection wrote
	// on purpose); on any other scheme they would run but mean nothing.
	if scheme != SelectDedupe && scheme != POD {
		for _, f := range []struct {
			on   bool
			name string
		}{{a.Streams, "streams"}, {a.BGDedup, "bgdedup"}, {a.Tier, "globalfp"}} {
			if f.on {
				return fmt.Errorf("%s supports schemes %s and %s only (got %s)", f.name, SelectDedupe, POD, scheme)
			}
		}
	}
	if a.Tier && (a.Shards < 2 || a.Shards > 64) {
		return fmt.Errorf("globalfp needs 2-64 shards (got %d); the tier recovers cross-shard dedup losses, one shard has none", a.Shards)
	}
	return nil
}

// Env caches replay results so that experiments sharing runs (Figures
// 8, 9, 10, 11) pay for each (engine, trace) combination once. Traces
// themselves are cached process-wide, keyed by (name, scale): trace
// generation is deterministic in those two inputs, so every Env at the
// same scale — podbench runs each experiment in its own Env — shares
// one generated corpus instead of regenerating it per figure.
type Env struct {
	Scale   float64
	Workers int

	// TraceEvery > 0 samples every nth measured request of each replay
	// into its result's Metrics.Traces (set before the first replay
	// runs; cached results keep whatever sampling they ran with).
	TraceEvery int

	mu      sync.Mutex
	results map[string]*replay.Result

	// dupPacks caches the synthetic redundancy-sweep traces by dup
	// fraction, so Native and POD replay the same generated trace.
	dupPacks map[float64]*tracePack

	// the chunking experiment's outcome, kept once computed
	chunkTable *stats.Table
	chunkRows  []ChunkingRow
}

// tracePack is one (profile, scale) trace, generated at most once via
// the embedded Once: callers that only need the profile never pay for
// generation, and replay workers pulling the same pack concurrently
// block until the single generation finishes.
type tracePack struct {
	prof  workload.Profile
	scale float64

	once   sync.Once
	tr     *trace.Trace
	warmup int
}

// generate materializes the trace (idempotent, safe for concurrent
// use).
func (p *tracePack) generate() (*trace.Trace, int) {
	p.once.Do(func() {
		p.tr, p.warmup = workload.Generate(p.prof, p.scale)
	})
	return p.tr, p.warmup
}

var (
	corpusMu sync.Mutex
	corpus   = map[corpusKey]*tracePack{}
)

type corpusKey struct {
	name  string
	scale float64
}

// corpusPack returns the shared pack for (name, scale) without
// generating its trace.
func corpusPack(name string, scale float64) *tracePack {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	k := corpusKey{name, scale}
	if p, ok := corpus[k]; ok {
		return p
	}
	prof, ok := workload.ByName(name)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown trace %q", name))
	}
	p := &tracePack{prof: prof, scale: scale}
	corpus[k] = p
	return p
}

// NewEnv returns an environment replaying traces at the given scale
// (1.0 = the paper's request counts) with the given parallelism.
func NewEnv(scale float64, workers int) *Env {
	return &Env{
		Scale:   scale,
		Workers: workers,
		results: make(map[string]*replay.Result),
	}
}

// pack returns the generated trace pack for name at this Env's scale.
func (e *Env) pack(name string) *tracePack {
	p := corpusPack(name, e.Scale)
	p.generate()
	return p
}

func key(engineName, traceName string) string { return engineName + "/" + traceName }

// Cell is one replay the cross-figure planner may need: a stable key,
// an engine factory, and a lazy trace. The key doubles as the
// deduplication handle — a sweep point whose configuration is
// identical to a plain (engine, trace) matrix cell declares the matrix
// key and is never replayed twice, no matter which figure asks first.
// The default points folded this way: Fig3's 50% index share and the
// RAID5 layout/64 KB stripe/threshold-3/healthy-array ablation points,
// each of which is the evaluation platform's default configuration.
type Cell struct {
	Key     string
	Factory func() engine.Engine
	TraceFn func() (*trace.Trace, int)
}

// EnsureCells replays every cell whose key is not yet cached, on up to
// Workers goroutines, and caches the results. Duplicate keys
// within one batch run once.
func (e *Env) EnsureCells(cells []Cell) {
	var missing []Cell
	seen := make(map[string]bool, len(cells))
	e.mu.Lock()
	for _, c := range cells {
		if _, ok := e.results[c.Key]; !ok && !seen[c.Key] {
			seen[c.Key] = true
			missing = append(missing, c)
		}
	}
	e.mu.Unlock()
	if len(missing) == 0 {
		return
	}

	jobs := make([]replay.Job, len(missing))
	for i, c := range missing {
		jobs[i] = replay.Job{
			Key:        c.Key,
			Factory:    c.Factory,
			TraceFn:    c.TraceFn,
			TraceEvery: e.TraceEvery,
		}
	}
	results := replay.RunAll(jobs, e.Workers)
	e.mu.Lock()
	for i, r := range results {
		if r.Err != nil {
			e.mu.Unlock()
			panic(fmt.Sprintf("experiments: %s failed: %v", jobs[i].Key, r.Err))
		}
		e.results[jobs[i].Key] = r
	}
	e.mu.Unlock()
}

// cellResult returns the cached result for a cell key; the caller must
// have run it through EnsureCells first.
func (e *Env) cellResult(k string) *replay.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.results[k]
	if !ok {
		panic(fmt.Sprintf("experiments: cell %q was never replayed", k))
	}
	return r
}

// matrixCell is the canonical (engine, trace) evaluation cell: the
// §IV-A platform built by BuildConfig, keyed so every figure shares
// it.
func (e *Env) matrixCell(engineName, traceName string) Cell {
	p := corpusPack(traceName, e.Scale)
	return Cell{
		Key:     key(engineName, traceName),
		Factory: func() engine.Engine { return NewEngine(engineName, BuildConfig(p.prof, e.Scale)) },
		TraceFn: p.generate,
	}
}

// EnsureMatrix replays every missing (engine, trace) combination, in
// parallel, and caches the results.
func (e *Env) EnsureMatrix(engines, traces []string) {
	cells := make([]Cell, 0, len(engines)*len(traces))
	for _, tn := range traces {
		for _, en := range engines {
			cells = append(cells, e.matrixCell(en, tn))
		}
	}
	e.EnsureCells(cells)
}

// Result returns the cached replay of one combination, running it if
// needed.
func (e *Env) Result(engineName, traceName string) *replay.Result {
	e.EnsureMatrix([]string{engineName}, []string{traceName})
	return e.cellResult(key(engineName, traceName))
}

// MetricsSnapshot merges the metrics of every replay this Env has run
// so far into one snapshot (per-phase histograms merge bucket-wise;
// sampled traces append). Keys are sorted for determinism.
func (e *Env) MetricsSnapshot() *metrics.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.results))
	for k := range e.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := metrics.NewSnapshot()
	for _, k := range keys {
		if r := e.results[k]; r != nil && r.Metrics != nil {
			out.Merge(r.Metrics)
		}
	}
	return out
}

// normalize maps a value to percent of its baseline.
func normalize(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * v / base
}
