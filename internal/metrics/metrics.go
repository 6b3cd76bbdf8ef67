// Package metrics is the observability layer of this repository: a
// small, zero-allocation-on-hot-path metrics registry that the storage
// substrates (engine, icache, index, maptable, raid) and the serving
// layer publish into, plus sampled structured request traces.
//
// Design rules:
//
//   - Histogram handles are resolved by name once, at
//     construction/instrumentation time; the hot path then performs
//     plain integer arithmetic on pre-allocated state. No map lookups,
//     no interface boxing, no allocation per observation. Everything
//     else is a GaugeFunc: a value its substrate already tracks, read at
//     snapshot time.
//   - A Registry is single-writer: it belongs to one engine (one shard)
//     and is mutated only by that engine's serving goroutine. Readers
//     (snapshots) must synchronize externally — the sharded server
//     pauses a shard before snapshotting it, and the replay harness
//     snapshots after the replay completes.
//   - Cross-shard aggregation happens on immutable Snapshots: merging
//     sums counters and gauges and adds histograms bucket-wise.
//     Per-shard views stay available through shard-labeled metric names
//     (see Labeled).
//   - All durations are simulated microseconds, matching the rest of
//     the repository; histograms are fixed-size log₂-bucketed so they
//     merge exactly and never allocate after creation.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"github.com/pod-dedup/pod/internal/stats"
)

// Histogram is a registry-named stats.Histogram: the one fixed-bucket
// log₂-scale histogram of the repository, over non-negative integer
// samples (simulated microseconds). Observing never allocates.
type Histogram struct {
	stats.Histogram
}

// Observe records one sample; negative samples clamp to zero.
func (h *Histogram) Observe(v int64) { h.Add(v) }

// Registry holds the named metrics of one engine shard (or one
// process-level component). The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
	phases     *PhaseSet
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// GaugeFunc registers fn to be evaluated at snapshot time under name.
// A callback costs nothing on the hot path, which makes it the right
// shape for values a substrate already tracks (cache occupancy, journal
// tail, hit totals). Re-registering the same name replaces the callback — substrates that
// are rebuilt (crash recovery replaces the map table and caches)
// re-instrument so the callbacks follow the live object. Registering a
// name under two different kinds panics.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram", name))
	}
	r.gaugeFuncs[name] = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if _, ok := r.gaugeFuncs[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge func", name))
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Phases returns the registry's per-phase latency recorder, creating it
// (and its backing histograms) on first use.
func (r *Registry) Phases() *PhaseSet {
	r.mu.Lock()
	ps := r.phases
	r.mu.Unlock()
	if ps != nil {
		return ps
	}
	ps = newPhaseSet(r)
	r.mu.Lock()
	if r.phases == nil {
		r.phases = ps
	}
	ps = r.phases
	r.mu.Unlock()
	return ps
}

// Reset zeroes every histogram in place (gauge callbacks are left
// registered — they always report live state). The
// replay harness calls it at the end of the warm-up window, mirroring
// engine.Stats.Reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.hists {
		h.Histogram.Reset()
	}
	if r.phases != nil {
		r.phases.last = [NumPhases]int64{}
	}
}

// Snapshot captures every metric as plain data, evaluating gauge
// callbacks. The caller must ensure the registry's writer is paused.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := NewSnapshot()
	for name, g := range r.gaugeFuncs {
		s.Gauges[name] = g()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapHistogram(h)
	}
	return s
}

// Labeled composes a metric name with Prometheus-style labels:
// Labeled("server_queue_wait_us", "shard", "3") is
// `server_queue_wait_us{shard="3"}`. The registry treats the result as
// an opaque name; the Prometheus dump re-parses it so bucket labels
// merge correctly.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		panic("metrics: Labeled needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a possibly-labeled metric name into its base name
// and the label body (without braces, "" when unlabeled).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// bucketUpper reports the exclusive upper bound of log₂ bucket i,
// saturating at MaxInt64 for the last bucket.
func bucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// sortedKeys returns map keys in lexical order, for deterministic text
// output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
