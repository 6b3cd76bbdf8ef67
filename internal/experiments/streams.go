package experiments

import (
	"fmt"
	"strconv"

	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/metrics"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// Static-vs-dynamic index-cache apportionment sweep (not part of the
// paper's figure set; HPDedup-style extension). The adversarial
// two-tenant mix puts a bursty high-dup tenant against a steady
// low-dup tenant whose duplicate bursts arrive in anti-phase: each
// burst's working set needs 60% of the index partition, so every fixed
// split starves at least one tenant's bursts, while the locality-driven
// apportioner follows the demand back and forth.

// StreamsRow is one sweep variant's outcome.
type StreamsRow struct {
	Variant string
	Dynamic bool
	// Per-stream write and writes-removed counts (stream → count); nil
	// for the shared-cache reference row, which has no stream gauges.
	Writes, Removed map[uint32]int64
	// Quota is each stream's final index-partition quota in entries.
	Quota        map[uint32]int64
	TotalRemoved int64
}

// streamVariant is one point of the sweep.
type streamVariant struct {
	key     string
	dynamic bool
	streams engine.StreamParams
}

// streamSweep builds the shared / static 100..0 / dynamic variant set
// over nStreams tenant streams (static splits assign the listed share
// to stream 1 and the rest to stream 2; extra streams get nothing —
// the two burst tenants are the contended parties).
func streamSweep() []streamVariant {
	vs := []streamVariant{{key: "shared"}}
	for _, s := range []float64{1.0, 0.75, 0.50, 0.25, 0.0} {
		vs = append(vs, streamVariant{
			key: fmt.Sprintf("static %.0f/%.0f", s*100, (1-s)*100),
			streams: engine.StreamParams{
				Enabled:      true,
				StaticShares: map[uint32]float64{1: s, 2: 1 - s},
			},
		})
	}
	vs = append(vs, streamVariant{
		key:     "dynamic",
		dynamic: true,
		streams: engine.StreamParams{Enabled: true},
	})
	return vs
}

// streamCells plans one replay per variant over the given mix.
func (e *Env) streamCells(prefix string, tr *trace.Trace, warm int, dims workload.MixedDims, variants []streamVariant) []Cell {
	cells := make([]Cell, 0, len(variants))
	for _, v := range variants {
		cells = append(cells, Cell{
			Key: prefix + "/" + v.key,
			Factory: func() engine.Engine {
				cfg := dimsConfig(dims)
				cfg.Streams = v.streams
				return core.NewSelectDedupe(cfg)
			},
			TraceFn: func() (*trace.Trace, int) { return tr, warm },
		})
	}
	return cells
}

// streamRow extracts one variant's per-stream accounting.
func streamRow(v streamVariant, r *replay.Result, streams []uint32) StreamsRow {
	row := StreamsRow{Variant: v.key, Dynamic: v.dynamic, TotalRemoved: r.Stats.WritesRemoved}
	if !v.streams.Enabled {
		return row
	}
	row.Writes = make(map[uint32]int64, len(streams))
	row.Removed = make(map[uint32]int64, len(streams))
	row.Quota = make(map[uint32]int64, len(streams))
	for _, s := range streams {
		l := strconv.FormatUint(uint64(s), 10)
		row.Writes[s] = r.Metrics.Gauges[metrics.Labeled("stream_writes", "stream", l)]
		row.Removed[s] = r.Metrics.Gauges[metrics.Labeled("stream_writes_removed", "stream", l)]
		row.Quota[s] = r.Metrics.Gauges[metrics.Labeled("icache_stream_quota", "stream", l)]
	}
	return row
}

// streamsTable renders a sweep.
func streamsTable(title string, rows []StreamsRow, streams []uint32) *stats.Table {
	cols := []string{"Apportionment"}
	for _, s := range streams {
		cols = append(cols, fmt.Sprintf("stream %d removed", s))
	}
	cols = append(cols, "total removed")
	t := stats.NewTable(title, cols...)
	for _, row := range rows {
		cells := []string{row.Variant}
		for _, s := range streams {
			if row.Removed == nil {
				cells = append(cells, "-")
				continue
			}
			pct := 0.0
			if w := row.Writes[s]; w > 0 {
				pct = 100 * float64(row.Removed[s]) / float64(w)
			}
			cells = append(cells, fmt.Sprintf("%d (%.1f%%)", row.Removed[s], pct))
		}
		cells = append(cells, fmt.Sprintf("%d", row.TotalRemoved))
		t.AddRow(cells...)
	}
	return t
}

// Streams runs the two-tenant adversarial sweep: a shared index cache,
// every static split of the partition between the two tenants, and the
// dynamic locality-driven apportioner. The paper-level claim under
// test: dynamic removes more writes in total than the best static
// split, because no fixed division serves both tenants' anti-phase
// bursts.
func (e *Env) Streams() (*stats.Table, []StreamsRow) {
	tr, warm, dims := workload.AdversarialMix(e.Scale)
	variants := streamSweep()
	e.EnsureCells(e.streamCells("streams", tr, warm, dims, variants))
	streams := []uint32{1, 2}
	rows := make([]StreamsRow, 0, len(variants))
	for _, v := range variants {
		rows = append(rows, streamRow(v, e.cellResult("streams/"+v.key), streams))
	}
	return streamsTable("Index-cache apportionment — adversarial two-tenant mix (writes removed inline)",
		rows, streams), rows
}

// StreamsScan runs the three-tenant variant — the two burst tenants
// plus a churning scan whose working set is 4× the index partition.
// Only shared vs dynamic: the scan floods a shared LRU between every
// burst cycle (near-zero inline dedup for everyone), while per-stream
// quotas floor the polluter and keep serving the burst tenants.
func (e *Env) StreamsScan() (*stats.Table, []StreamsRow) {
	tr, warm, dims := workload.AdversarialScanMix(e.Scale)
	variants := []streamVariant{
		{key: "shared"},
		{key: "dynamic", dynamic: true, streams: engine.StreamParams{Enabled: true}},
	}
	e.EnsureCells(e.streamCells("streams-scan", tr, warm, dims, variants))
	streams := []uint32{1, 2, 3}
	rows := make([]StreamsRow, 0, len(variants))
	for _, v := range variants {
		rows = append(rows, streamRow(v, e.cellResult("streams-scan/"+v.key), streams))
	}
	return streamsTable("Index-cache apportionment — burst tenants + churning scan (writes removed inline)",
		rows, streams), rows
}
