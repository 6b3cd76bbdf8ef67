package experiments

import (
	"fmt"
	"time"

	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

// Chunking-axis experiment (not part of the paper's figure set; CDC
// extension). The shifted-content snapshot trace rewrites every object
// across generations with a small head edit, so every 4 KiB block ID
// is unique: fixed-4K chunking — the paper's model — removes zero
// writes by construction. Content-defined chunking re-derives chunk
// boundaries from the materialized bytes, so the byte-shifted
// redundancy dedups. The experiment replays the same trace under each
// chunker on the Select-Dedupe engine and reports write removal plus
// the raw chunking+fingerprint throughput of each splitter.

// ChunkingRow is one chunker's outcome on the shifted trace.
type ChunkingRow struct {
	Algo          string
	Removed       int64 // write requests fully absorbed
	Writes        int64
	DedupedPct    float64 // chunks deduplicated, %
	UsedBlocks    uint64
	MeanWriteUS   float64
	EmittedChunks int64   // CDC chunks emitted over the replay (0 = fixed)
	ThroughputMBs float64 // raw chunk+fingerprint wall-clock throughput
}

// chunkingThroughput measures one splitter's raw wall-clock rate —
// materialize, sweep, cut, hash, fingerprint — over rotating stream
// windows, in MB/s of content chunked. Fixed-4K reports the rate of
// the engine's fixed split, SplitInto with fingerprints, over the same
// window size for comparison. This is the wall-clock half of the
// experiment; the replay half charges only the modeled virtual-time
// cost.
func chunkingThroughput(algo cdc.Algo) float64 {
	const blocks = 64
	const rounds = 48
	ids := make([]chunk.ContentID, blocks)
	if algo == cdc.Fixed4K {
		for i := range ids {
			ids[i] = chunk.ContentID(i*313 + 11)
		}
		scratch := make([]chunk.Chunk, 0, blocks)
		return measureMBs(func() int64 {
			for r := 0; r < rounds; r++ {
				scratch = chunk.SplitInto(scratch[:0], ids, chunk.SyntheticFingerprinter{}, false)
			}
			return rounds * blocks * chunk.Size
		})
	}
	s := cdc.NewSplitter(cdc.Params{Algo: algo})
	dst := make([]chunk.Chunk, 0, s.Params().MaxChunksPerSlots(blocks))
	// warm scratch outside the timed region
	for i := range ids {
		ids[i] = cdc.EncodeEdit(1, 0, uint32(128+i))
	}
	dst, _ = s.Split(dst[:0], ids)
	return measureMBs(func() (total int64) {
		for r := 0; r < rounds; r++ {
			for i := range ids {
				ids[i] = cdc.EncodeEdit(1, uint8(r&7), uint32(128+i))
			}
			var n int64
			dst, n = s.Split(dst[:0], ids)
			total += n
		}
		return total
	})
}

// measureMBs repeats pass, which returns the content bytes it chunked,
// until at least 100 ms have gone by, and returns total bytes ÷ total
// time in MB/s. One pass of the fixed-4K split lasts ~250 µs — a single
// scheduler quantum of jitter moved a once-through figure by a factor
// of two.
func measureMBs(pass func() int64) float64 {
	var total int64
	start := time.Now()
	for {
		total += pass()
		if el := time.Since(start); el >= 100*time.Millisecond {
			return float64(total) / el.Seconds() / 1e6
		}
	}
}

// chunkingAlgos is the swept axis.
func chunkingAlgos() []cdc.Algo { return []cdc.Algo{cdc.Fixed4K, cdc.Gear, cdc.SeqCDC} }

// Chunking replays the shifted snapshot trace under each chunker on
// the Select-Dedupe engine. The claim under test: gear and seqcdc
// remove a substantial fraction of the shifted rewrites while fixed4k
// removes exactly none, at a bounded chunking-throughput cost. The
// outcome is computed once per Env: podbench prints the table through
// the catalogue, then asks again for the rows it annotates its
// trajectory with, and must get the throughput figures it printed.
func (e *Env) Chunking() (*stats.Table, []ChunkingRow) {
	if e.chunkTable != nil {
		return e.chunkTable, e.chunkRows
	}
	tr, warm, dims := workload.ShiftedSnapshot(e.Scale)
	cells := make([]Cell, 0, 3)
	for _, algo := range chunkingAlgos() {
		cells = append(cells, Cell{
			Key: "chunking/" + algo.String(),
			Factory: func() engine.Engine {
				cfg := dimsPlatform(dims).Config()
				cfg.Chunking = cdc.Params{Algo: algo}
				return core.NewSelectDedupe(cfg)
			},
			TraceFn: func() (*trace.Trace, int) { return tr, warm },
		})
	}
	e.EnsureCells(cells)

	rows := make([]ChunkingRow, 0, 3)
	for _, algo := range chunkingAlgos() {
		r := e.CellResult("chunking/" + algo.String())
		rows = append(rows, ChunkingRow{
			Algo:          algo.String(),
			Removed:       r.Stats.WritesRemoved,
			Writes:        r.Stats.Writes,
			DedupedPct:    r.Stats.DedupRatioPct(),
			UsedBlocks:    r.UsedBlocks,
			MeanWriteUS:   r.MeanWriteRT,
			EmittedChunks: r.Metrics.Gauges["cdc_emitted_chunks"],
			ThroughputMBs: chunkingThroughput(algo),
		})
	}

	t := stats.NewTable("Chunking axis — shifted snapshot trace (Select-Dedupe engine)",
		"Chunker", "writes removed", "removed %", "chunks deduped %", "used blocks", "mean write ms", "chunk+fp MB/s")
	for _, row := range rows {
		pct := 0.0
		if row.Writes > 0 {
			pct = 100 * float64(row.Removed) / float64(row.Writes)
		}
		t.AddRow(row.Algo,
			fmt.Sprintf("%d", row.Removed),
			fmt.Sprintf("%.1f%%", pct),
			fmt.Sprintf("%.1f%%", row.DedupedPct),
			fmt.Sprintf("%d", row.UsedBlocks),
			fmt.Sprintf("%.2f", row.MeanWriteUS/1000),
			fmt.Sprintf("%.0f", row.ThroughputMBs),
		)
	}
	e.chunkTable, e.chunkRows = t, rows
	return t, rows
}
