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
	"strings"
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

// A Platform describes one simulated storage system before it is
// built: Disks spindles of DiskBlocks 4 KiB blocks each under Level
// with a StripeKB stripe unit, MemoryBytes of storage-cache DRAM and a
// Map-table journal of NVRAMBytes (0 sizes it to the array, 24 B a data
// block; negative means none). pod.New, podsim and the serving shards
// describe their platform as one and build it through Build.
type Platform struct {
	Disks       int
	DiskBlocks  uint64
	Level       raid.Level
	StripeKB    int
	MemoryBytes int64
	NVRAMBytes  int
}

// DefaultPlatform is the paper's array (§IV-A) at the library's
// defaults: four 2 GiB spindles in RAID5 with a 64 KB stripe unit,
// 32 MB of cache and a journal sized to the array.
func DefaultPlatform() Platform {
	return Platform{Disks: 4, DiskBlocks: 1 << 19, Level: raid.RAID5, StripeKB: 64, MemoryBytes: 32 << 20}
}

// ProfilePlatform is the experimental platform of §IV-A for one trace:
// a 4-disk RAID5 array over half the trace's footprint per spindle with
// a 64 KB stripe unit, and the trace's DRAM budget, split 50/50 between
// index and read cache unless an engine adapts it. memScale shrinks the
// cache budget along with the trace scale so that sub-sampled runs keep
// the paper's cache pressure (an unscaled cache would hold the whole
// scaled-down working set and hide every miss-path effect).
func ProfilePlatform(p workload.Profile, memScale float64) Platform {
	mem := int64(float64(p.MemoryBytes) * memScale)
	if mem < 1<<18 {
		mem = 1 << 18
	}
	return Platform{Disks: 4, DiskBlocks: p.FootprintChunks / 2, Level: raid.RAID5, StripeKB: 64,
		MemoryBytes: mem, NVRAMBytes: int(p.FootprintChunks * 40)}
}

// BuildConfig builds ProfilePlatform(p, memScale).
func BuildConfig(p workload.Profile, memScale float64) engine.Config {
	return ProfilePlatform(p, memScale).Config()
}

// dimsPlatform is the fixed platform of the merged-trace experiments
// (stream sweep, chunking axis): the §IV-A array shape over the mix's
// footprint with the DRAM budget its pools are tuned against —
// deliberately NOT scaled with the trace; the pool / partition ratios
// are the experiment.
func dimsPlatform(dims workload.MixedDims) Platform {
	return Platform{Disks: 4, DiskBlocks: dims.FootprintChunks, Level: raid.RAID5, StripeKB: 64,
		MemoryBytes: dims.MemoryBytes, NVRAMBytes: int(dims.FootprintChunks * 40)}
}

// CellPlatform is the platform podbench replays the built-in trace
// name on at scale: a paper trace's §IV-A cell, or the chunking
// experiment's for "shifted". ok is false for any other name.
func CellPlatform(name string, scale float64) (p Platform, ok bool) {
	if name == "shifted" {
		return dimsPlatform(workload.ShiftedDims(scale)), true
	}
	prof, ok := workload.ByName(name)
	return ProfilePlatform(prof, scale), ok
}

// Admit reports the first rule p breaks, or nil: a stripe unit of whole
// chunks, a positive cache, a disk count the RAID level supports, disks
// and an array within the content model's trace.LBALimit blocks, and
// the 1/32 index zone. It is the one door that keeps a platform away
// from the panics of raid.New and engine.NewBase. The error leads with
// the dimension at fault under the name of podsim's flag for it.
func (p Platform) Admit() error {
	switch {
	case p.StripeKB < 4 || p.StripeKB%4 != 0:
		return fmt.Errorf("stripe %d KB is not a positive multiple of the 4 KB chunk", p.StripeKB)
	case p.MemoryBytes <= 0:
		return fmt.Errorf("memory %d B: the storage cache needs a positive budget", p.MemoryBytes)
	case p.DiskBlocks > trace.LBALimit: // alone first: the capacity product could wrap
		return fmt.Errorf("diskblocks %d: one disk past the %d blocks the content model addresses", p.DiskBlocks, uint64(trace.LBALimit))
	}
	switch n, err := raid.DataBlocks(p.Level, p.Disks, p.DiskBlocks, uint64(p.StripeKB/4)); {
	case err != nil:
		return fmt.Errorf("disks %d: %v", p.Disks, err)
	case n > trace.LBALimit:
		return fmt.Errorf("disks %d of %d blocks hold %d data blocks; the content model addresses at most %d",
			p.Disks, p.DiskBlocks, n, uint64(trace.LBALimit))
	case n < engine.IndexZoneFrac:
		return fmt.Errorf("diskblocks %d: %d disks hold %d data blocks; the engines need at least %d (1/%d of the array is the index zone)",
			p.DiskBlocks, p.Disks, n, engine.IndexZoneFrac, engine.IndexZoneFrac)
	}
	return nil
}

// Config builds p, which Admit must have passed, into an engine.Config
// — the one place a disk array is built. Every other field is the
// caller's to set on the result.
func (p Platform) Config() engine.Config {
	ds := make([]*disk.Disk, p.Disks)
	for i := range ds {
		ds[i] = disk.New(disk.DefaultParams(p.DiskBlocks))
	}
	cfg := engine.Config{Array: raid.New(p.Level, ds, uint64(p.StripeKB/4)), MemoryBytes: p.MemoryBytes, NVRAMBytes: max(p.NVRAMBytes, 0)}
	if p.NVRAMBytes == 0 {
		cfg.NVRAMBytes = int(cfg.Array.DataBlocks() * 24)
	}
	return cfg
}

var schemePunct = strings.NewReplacer("-", "", "/", "", "_", "", " ", "")

// ParseScheme resolves a scheme name to its engine name,
// case-insensitively and ignoring hyphen/slash/underscore/space
// punctuation: "pod", "Select-Dedupe", "selectdedupe" and "i/o-dedup"
// all resolve. The error leads with "scheme", the flag that names one.
func ParseScheme(s string) (string, error) {
	want := schemePunct.Replace(s)
	for _, name := range AllEngines {
		if want != "" && strings.EqualFold(want, schemePunct.Replace(name)) {
			return name, nil
		}
	}
	return "", fmt.Errorf("scheme %q unknown (have %s)", s, strings.Join(AllEngines, ", "))
}

// Build is the one recipe for a single engine: it resolves scheme,
// checks the axes, admits the platform and builds it, lets tune set the
// scheme's knobs on the built config (nil sets none), and returns the
// engine with the axes switched on. An error leads with the flag name
// of what is at fault: the scheme, an axis or a platform dimension.
func Build(scheme string, p Platform, a Axes, tune func(*engine.Config)) (engine.Engine, error) {
	name, err := ParseScheme(scheme)
	if err == nil {
		err = CheckAxes(name, a)
	}
	if err == nil {
		err = p.Admit()
	}
	if err != nil {
		return nil, err
	}
	cfg := p.Config()
	cfg.Chunking = cdc.Params{Algo: a.Chunking}
	cfg.Streams = engine.StreamParams{Enabled: a.Streams}
	if tune != nil {
		tune(&cfg)
	}
	e := NewEngine(name, cfg)
	if a.BGDedup {
		bgdedup.Attach(e, bgdedup.Params{BlocksPerSec: a.BGDedupRate}) // CheckAxes admitted the scheme
	}
	return e, nil
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
	// BGDedupRate budgets the scanner in blocks per simulated second
	// (0 = its default).
	BGDedupRate int64
	Tier        bool // global fingerprint tier across Shards shards
	Shards      int
}

// CheckAxes states the scheme × feature rules once, for Build and the
// serving run spec alike. scheme is a
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

// CellResult returns the cached result for a cell key; the caller must
// have run it through EnsureCells first.
func (e *Env) CellResult(k string) *replay.Result {
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
	return e.CellResult(key(engineName, traceName))
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
