package experiments

import (
	"fmt"
	"time"

	"github.com/pod-dedup/pod/internal/chunk"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/replay"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/trace"
)

// Table1 reproduces the qualitative comparison of Table I.
func Table1() *stats.Table {
	t := stats.NewTable("Table I — POD vs. the state of the art",
		"Feature", "I/O Dedup", "iDedup", "Post-process", "POD")
	t.AddRow("Capacity saving", "-", "yes", "yes", "yes")
	t.AddRow("Performance enhancement", "yes", "-", "-", "yes")
	t.AddRow("Small-write elimination", "-", "-", "-", "yes")
	t.AddRow("Large-write elimination", "-", "yes", "yes", "yes")
	t.AddRow("Cache partitioning", "static", "static", "static", "dynamic/adaptive")
	return t
}

// Table2 regenerates the trace-characteristics table.
func (e *Env) Table2() (*stats.Table, []trace.Characteristics) {
	t := stats.NewTable("Table II — trace characteristics",
		"Trace", "Write ratio", "I/Os", "Avg request")
	var out []trace.Characteristics
	for _, tn := range TraceNames {
		p := e.pack(tn)
		a := trace.Analyze(p.tr)
		out = append(out, a.Chars)
		t.AddRow(tn, stats.Pct(a.Chars.WriteRatio),
			fmt.Sprintf("%d", a.Chars.IOs),
			fmt.Sprintf("%.1f KB", a.Chars.AvgReqKB))
	}
	return t, out
}

// Fig1 regenerates the redundancy-by-request-size distributions.
func (e *Env) Fig1() (*stats.Table, map[string][]trace.SizeBucket) {
	t := stats.NewTable("Figure 1 — I/O redundancy by write-request size",
		"Trace", "Size", "Total", "Redundant", "Redundant%")
	out := map[string][]trace.SizeBucket{}
	for _, tn := range TraceNames {
		a := trace.Analyze(e.pack(tn).tr)
		out[tn] = a.Buckets
		for _, b := range a.Buckets {
			label := fmt.Sprintf("%dKB", b.LabelKB)
			if b.LabelKB == trace.BucketLabelsKB[len(trace.BucketLabelsKB)-1] {
				label = fmt.Sprintf("≥%dKB", b.LabelKB)
			}
			t.AddRow(tn, label,
				fmt.Sprintf("%d", b.Total),
				fmt.Sprintf("%d", b.Redundant),
				stats.Pct(stats.Ratio(b.Redundant, b.Total)))
		}
	}
	return t, out
}

// Fig2Row is one bar pair of Figure 2.
type Fig2Row struct {
	Trace           string
	SameLBAPct      float64 // same location, same content
	DiffLBAPct      float64 // different location, same content (capacity redundancy)
	IORedundancyPct float64
}

// Fig2 regenerates the I/O vs. capacity redundancy comparison.
func (e *Env) Fig2() (*stats.Table, []Fig2Row) {
	t := stats.NewTable("Figure 2 — I/O redundancy vs capacity redundancy (% of write data)",
		"Trace", "Same-location", "Diff-location (capacity)", "I/O redundancy (total)")
	var rows []Fig2Row
	for _, tn := range TraceNames {
		a := trace.Analyze(e.pack(tn).tr)
		rows = append(rows, Fig2Row{
			Trace:           tn,
			SameLBAPct:      a.SameLBAPct,
			DiffLBAPct:      a.DiffLBAPct,
			IORedundancyPct: a.IORedundancyPct,
		})
		t.AddRow(tn, stats.Pct(a.SameLBAPct), stats.Pct(a.DiffLBAPct), stats.Pct(a.IORedundancyPct))
	}
	return t, rows
}

// Fig3Row is one sweep point of Figure 3.
type Fig3Row struct {
	IndexFrac           float64
	ReadRTms, WriteRTms float64
}

// Fig3 sweeps the static index-cache share on the mail trace under
// Full-Dedupe: a larger index cache helps writes and hurts reads.
func (e *Env) Fig3(fracs []float64) (*stats.Table, []Fig3Row) {
	if len(fracs) == 0 {
		fracs = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	p := corpusPack("mail", e.Scale)
	cells := make([]Cell, len(fracs))
	for i, f := range fracs {
		c := Cell{
			Key: fmt.Sprintf("fig3/%.0f", f*100),
			Factory: func() engine.Engine {
				cfg := BuildConfig(p.prof, e.Scale)
				cfg.IndexFrac = f
				return NewEngine(FullDedupe, cfg)
			},
			TraceFn: p.generate,
		}
		if f == 0.5 {
			// the platform default: identical to the Full-Dedupe/mail
			// matrix cell, so the planner shares one replay with
			// Figures 8–10
			c.Key = key(FullDedupe, "mail")
		}
		cells[i] = c
	}
	e.EnsureCells(cells)

	t := stats.NewTable("Figure 3 — response time vs index-cache share (mail, Full-Dedupe)",
		"Index cache", "Read RT", "Write RT")
	var rows []Fig3Row
	for i := range cells {
		r := e.cellResult(cells[i].Key)
		rows = append(rows, Fig3Row{
			IndexFrac: fracs[i],
			ReadRTms:  r.MeanReadRT / 1000,
			WriteRTms: r.MeanWriteRT / 1000,
		})
		t.AddRow(stats.Pct(fracs[i]*100), stats.Ms(r.MeanReadRT), stats.Ms(r.MeanWriteRT))
	}
	return t, rows
}

// NormRow is one (trace, engine) cell of a normalized-metric figure.
type NormRow struct {
	Trace, Engine string
	Value         float64 // percent of Native
}

// normFigure builds a normalized-to-Native table over the fig8 engine
// set using the given per-result metric.
func (e *Env) normFigure(title string, engines []string, metric func(*replay.Result) float64) (*stats.Table, []NormRow) {
	e.EnsureMatrix(engines, TraceNames)
	t := stats.NewTable(title, append([]string{"Trace"}, engines...)...)
	var rows []NormRow
	for _, tn := range TraceNames {
		base := metric(e.Result(Native, tn))
		cells := []string{tn}
		for _, en := range engines {
			v := normalize(metric(e.Result(en, tn)), base)
			rows = append(rows, NormRow{Trace: tn, Engine: en, Value: v})
			cells = append(cells, fmt.Sprintf("%.1f", v))
		}
		t.AddRow(cells...)
	}
	return t, rows
}

// Fig8 regenerates the normalized overall response times.
func (e *Env) Fig8() (*stats.Table, []NormRow) {
	return e.normFigure("Figure 8 — normalized response time (% of Native, lower is better)",
		Fig8Engines, func(r *replay.Result) float64 { return r.MeanRT })
}

// Fig9Write regenerates Figure 9(a): normalized write response times.
func (e *Env) Fig9Write() (*stats.Table, []NormRow) {
	return e.normFigure("Figure 9a — normalized WRITE response time (% of Native)",
		Fig8Engines, func(r *replay.Result) float64 { return r.MeanWriteRT })
}

// Fig9Read regenerates Figure 9(b): normalized read response times.
func (e *Env) Fig9Read() (*stats.Table, []NormRow) {
	return e.normFigure("Figure 9b — normalized READ response time (% of Native)",
		Fig8Engines, func(r *replay.Result) float64 { return r.MeanReadRT })
}

// Fig10 regenerates the normalized storage-capacity usage.
func (e *Env) Fig10() (*stats.Table, []NormRow) {
	return e.normFigure("Figure 10 — normalized storage capacity used (% of Native)",
		Fig8Engines, func(r *replay.Result) float64 { return float64(r.UsedBlocks) })
}

// Fig11 regenerates the percentage of write requests removed, adding
// POD to the engine set.
func (e *Env) Fig11() (*stats.Table, []NormRow) {
	engines := []string{FullDedupe, IDedup, SelectDedupe, POD}
	e.EnsureMatrix(engines, TraceNames)
	t := stats.NewTable("Figure 11 — write requests removed (%)",
		append([]string{"Trace"}, engines...)...)
	var rows []NormRow
	for _, tn := range TraceNames {
		cells := []string{tn}
		for _, en := range engines {
			v := e.Result(en, tn).Stats.WriteRemovalPct()
			rows = append(rows, NormRow{Trace: tn, Engine: en, Value: v})
			cells = append(cells, fmt.Sprintf("%.1f", v))
		}
		t.AddRow(cells...)
	}
	return t, rows
}

// Raw reports absolute (non-normalized) per-engine measurements —
// useful for calibration and for EXPERIMENTS.md context.
func (e *Env) Raw() *stats.Table {
	e.EnsureMatrix(Fig11Engines, TraceNames)
	t := stats.NewTable("Raw measurements",
		"Trace", "Engine", "Read RT", "Write RT", "Removed%", "Dedup%", "CacheHit%", "IndexIOs", "Used blocks")
	for _, tn := range TraceNames {
		for _, en := range Fig11Engines {
			r := e.Result(en, tn)
			t.AddRow(tn, en,
				stats.Ms(r.MeanReadRT), stats.Ms(r.MeanWriteRT),
				fmt.Sprintf("%.1f", r.Stats.WriteRemovalPct()),
				fmt.Sprintf("%.1f", r.Stats.DedupRatioPct()),
				fmt.Sprintf("%.1f", r.Stats.CacheHitPct()),
				fmt.Sprintf("%d", r.Stats.IndexDiskIOs),
				fmt.Sprintf("%d", r.UsedBlocks))
		}
	}
	return t
}

// SchemesTable compares every implemented scheme — including the two
// extra Table I baselines (I/O-Dedup, Post-Process) the paper discusses
// but does not plot — on normalized response time, capacity, and write
// removal, giving Table I an experimental backing.
func (e *Env) SchemesTable() *stats.Table {
	e.EnsureMatrix(AllEngines, TraceNames)
	t := stats.NewTable("All schemes — normalized RT / capacity / writes removed",
		"Trace", "Engine", "RT % of Native", "Capacity %", "Removed %")
	for _, tn := range TraceNames {
		base := e.Result(Native, tn)
		for _, en := range AllEngines {
			r := e.Result(en, tn)
			t.AddRow(tn, en,
				fmt.Sprintf("%.1f", normalize(r.MeanRT, base.MeanRT)),
				fmt.Sprintf("%.1f", normalize(float64(r.UsedBlocks), float64(base.UsedBlocks))),
				fmt.Sprintf("%.1f", r.Stats.WriteRemovalPct()))
		}
	}
	return t
}

// OverheadRow reports §IV-D for one trace.
type OverheadRow struct {
	Trace          string
	NVRAMPeakBytes int64
	MapEntries     int64
}

// Overhead regenerates the §IV-D analysis: the Map table's NVRAM
// high-water mark under POD (20 bytes/entry) and the measured cost of
// fingerprinting one 4 KB chunk with real SHA-1 on this host.
func (e *Env) Overhead() (*stats.Table, []OverheadRow, float64) {
	e.EnsureMatrix([]string{POD}, TraceNames)
	t := stats.NewTable("§IV-D — deduplication overheads under POD",
		"Trace", "Map-table NVRAM peak", "entries")
	var rows []OverheadRow
	for _, tn := range TraceNames {
		r := e.Result(POD, tn)
		rows = append(rows, OverheadRow{
			Trace:          tn,
			NVRAMPeakBytes: r.Stats.NVRAMPeakBytes,
			MapEntries:     r.Stats.NVRAMPeakBytes / 20,
		})
		t.AddRow(tn,
			fmt.Sprintf("%.2f MB", float64(r.Stats.NVRAMPeakBytes)/(1<<20)),
			fmt.Sprintf("%d", r.Stats.NVRAMPeakBytes/20))
	}

	// measured SHA-1 fingerprint latency for one 4 KB chunk
	var fp chunk.SHA1Fingerprinter
	c := chunk.Chunk{Content: 1, Data: chunk.Payload(1)}
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		fp.Fingerprint(&c)
	}
	perChunkUS := float64(time.Since(start).Microseconds()) / iters
	t.AddRow("SHA-1/4KB", fmt.Sprintf("%.2f µs measured", perChunkUS),
		fmt.Sprintf("modeled %d µs", chunk.DefaultChunkTimeUS))
	return t, rows, perChunkUS
}
