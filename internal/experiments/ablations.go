package experiments

import (
	"fmt"

	"github.com/pod-dedup/pod/internal/core"
	"github.com/pod-dedup/pod/internal/engine"
	"github.com/pod-dedup/pod/internal/raid"
	"github.com/pod-dedup/pod/internal/stats"
	"github.com/pod-dedup/pod/internal/workload"
)

// Ablation experiments beyond the paper's figures: sensitivity of the
// design-choice knobs DESIGN.md calls out. Every sweep point is a
// planner cell (see Cell): points whose knob sits at the platform
// default fold onto the corresponding (engine, trace) matrix cell, and
// each sweep batches its cells through EnsureCells so they run on the
// Env's shared pool instead of serializing in the caller.

// thresholdCell is Select-Dedupe with a given partial-redundancy
// threshold; threshold 3 is the platform default and shares the matrix
// cell.
func (e *Env) thresholdCell(traceName string, threshold int) Cell {
	if threshold == 3 {
		return e.matrixCell(SelectDedupe, traceName)
	}
	p := corpusPack(traceName, e.Scale)
	return Cell{
		Key: fmt.Sprintf("ablate/threshold/%s/%d", traceName, threshold),
		Factory: func() engine.Engine {
			cfg := BuildConfig(p.prof, e.Scale)
			cfg.Threshold = threshold
			return core.NewSelectDedupe(cfg)
		},
		TraceFn: p.generate,
	}
}

// ThresholdPoint replays one trace under Select-Dedupe with a given
// partial-redundancy threshold, returning the mean response time (µs)
// and the write-removal percentage. Threshold 1 degenerates toward
// Full-Dedupe's per-chunk behaviour (maximum dedup, maximum
// fragmentation risk); large thresholds approach iDedup's conservatism.
func (e *Env) ThresholdPoint(traceName string, threshold int) (float64, float64) {
	c := e.thresholdCell(traceName, threshold)
	e.EnsureCells([]Cell{c})
	r := e.CellResult(c.Key)
	return r.MeanRT, r.Stats.WriteRemovalPct()
}

// ThresholdSweep runs ThresholdPoint across thresholds and formats the
// result.
func (e *Env) ThresholdSweep(traceName string, thresholds []int) *stats.Table {
	if len(thresholds) == 0 {
		thresholds = []int{1, 2, 3, 4, 6, 8}
	}
	cells := make([]Cell, len(thresholds))
	for i, th := range thresholds {
		cells[i] = e.thresholdCell(traceName, th)
	}
	e.EnsureCells(cells)
	t := stats.NewTable("Ablation — Select-Dedupe threshold on "+traceName,
		"Threshold", "Mean RT", "Writes removed")
	for _, th := range thresholds {
		rt, removed := e.ThresholdPoint(traceName, th)
		t.AddRowf("%d\t%s\t%s", th, stats.Ms(rt), stats.Pct(removed))
	}
	return t
}

// stripeCell is POD on a RAID5 array with a given stripe unit; 64 KB
// is the platform default and shares the matrix cell.
func (e *Env) stripeCell(traceName string, stripeKB int) Cell {
	if stripeKB == 64 {
		return e.matrixCell(POD, traceName)
	}
	p := corpusPack(traceName, e.Scale)
	return Cell{
		Key: fmt.Sprintf("ablate/stripe/%s/%d", traceName, stripeKB),
		Factory: func() engine.Engine {
			pl := ProfilePlatform(p.prof, e.Scale)
			pl.StripeKB = stripeKB
			return core.NewPOD(pl.Config())
		},
		TraceFn: p.generate,
	}
}

// StripeUnitPoint replays one trace under POD with a given RAID5 stripe
// unit, returning the mean response time (µs).
func (e *Env) StripeUnitPoint(traceName string, stripeKB int) float64 {
	c := e.stripeCell(traceName, stripeKB)
	e.EnsureCells([]Cell{c})
	return e.CellResult(c.Key).MeanRT
}

// StripeUnitSweep runs StripeUnitPoint across units and formats the
// result.
func (e *Env) StripeUnitSweep(traceName string, unitsKB []int) *stats.Table {
	if len(unitsKB) == 0 {
		unitsKB = []int{16, 32, 64, 128, 256}
	}
	cells := make([]Cell, len(unitsKB))
	for i, kb := range unitsKB {
		cells[i] = e.stripeCell(traceName, kb)
	}
	e.EnsureCells(cells)
	t := stats.NewTable("Ablation — RAID5 stripe unit under POD on "+traceName,
		"Stripe unit", "Mean RT")
	for _, kb := range unitsKB {
		t.AddRowf("%dKB\t%s", kb, stats.Ms(e.StripeUnitPoint(traceName, kb)))
	}
	return t
}

// dupProfile is the synthetic workload whose fully-redundant write
// fraction is exactly dupFrac.
func dupProfile(scale, dupFrac float64) workload.Profile {
	prof := workload.Profile{
		Name:            "dupsweep",
		Seed:            0xD0D0,
		IOs:             int(20000 * scale * 10), // independent of trace scale granularity
		WriteRatio:      0.8,
		WriteSizes:      []workload.SizeWeight{{Chunks: 1, Weight: 50}, {Chunks: 2, Weight: 25}, {Chunks: 4, Weight: 15}, {Chunks: 8, Weight: 10}},
		ReadSizes:       []workload.SizeWeight{{Chunks: 1, Weight: 50}, {Chunks: 4, Weight: 30}, {Chunks: 8, Weight: 20}},
		FullDupFrac:     dupFrac,
		SameLBAFrac:     0.4,
		WriteDeepFrac:   0.1,
		FootprintChunks: 1 << 18,
		MemoryBytes:     8 << 20,
		PhaseLen:        256,
		WritePhase:      0.95,
		ReadPhase:       0.65,
		BurstGapUS:      11000,
		IdleGapUS:       2_000_000,
		WarmupFrac:      0.2,
	}
	if prof.IOs < 2000 {
		prof.IOs = 2000
	}
	return prof
}

// dupPack returns the Env-cached trace pack for one redundancy
// fraction, so Native and POD replay the same generated trace instead
// of regenerating it once per engine.
func (e *Env) dupPack(dupFrac float64) *tracePack {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dupPacks == nil {
		e.dupPacks = make(map[float64]*tracePack)
	}
	if p, ok := e.dupPacks[dupFrac]; ok {
		return p
	}
	p := &tracePack{prof: dupProfile(e.Scale, dupFrac), scale: 1.0}
	e.dupPacks[dupFrac] = p
	return p
}

// dupCell is one (engine, redundancy fraction) point of the sweep.
func (e *Env) dupCell(engineName string, dupFrac float64) Cell {
	p := e.dupPack(dupFrac)
	return Cell{
		Key: fmt.Sprintf("ablate/dup/%s/%.0f", engineName, dupFrac*100),
		Factory: func() engine.Engine {
			return NewEngine(engineName, BuildConfig(p.prof, 1.0))
		},
		TraceFn: p.generate,
	}
}

// DupSweepPoint measures mean write response time (µs) under a
// synthetic workload whose fully-redundant write fraction is exactly
// dupFrac, for the named engine — isolating how performance scales
// with available redundancy.
func (e *Env) DupSweepPoint(engineName string, dupFrac float64) float64 {
	c := e.dupCell(engineName, dupFrac)
	e.EnsureCells([]Cell{c})
	return e.CellResult(c.Key).MeanWriteRT
}

// DupSweep compares POD against Native across redundancy levels.
func (e *Env) DupSweep(fracs []float64) *stats.Table {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.25, 0.5, 0.75, 0.9}
	}
	var cells []Cell
	for _, f := range fracs {
		cells = append(cells, e.dupCell(Native, f), e.dupCell(POD, f))
	}
	e.EnsureCells(cells)
	t := stats.NewTable("Ablation — write RT vs workload redundancy",
		"Redundant writes", "Native", "POD", "POD vs Native")
	for _, f := range fracs {
		n := e.DupSweepPoint(Native, f)
		p := e.DupSweepPoint(POD, f)
		t.AddRowf("%.0f%%\t%s\t%s\t%.1f%%", f*100, stats.Ms(n), stats.Ms(p), 100*p/n)
	}
	return t
}

// layoutCell is one (engine, RAID layout) point; RAID5 is the platform
// default and shares the matrix cell. The RAID5 read-modify-write
// penalty is what makes write elimination so valuable; RAID1 and RAID0
// quantify how much of POD's benefit survives on layouts without it.
func (e *Env) layoutCell(engineName, traceName string, level raid.Level) Cell {
	if level == raid.RAID5 {
		return e.matrixCell(engineName, traceName)
	}
	p := corpusPack(traceName, e.Scale)
	return Cell{
		Key: fmt.Sprintf("ablate/layout/%s/%s/%d", engineName, traceName, level),
		Factory: func() engine.Engine {
			pl := ProfilePlatform(p.prof, e.Scale)
			pl.Level = level
			if level == raid.RAID0 {
				// RAID0 over 4 disks has 4/3 the data capacity; keep capacity
				// comparable by shrinking the disks
				pl.DiskBlocks = pl.DiskBlocks * 3 / 4
			}
			if level == raid.RAID1 {
				// mirrored pairs halve capacity: double the disk size
				pl.DiskBlocks = pl.DiskBlocks * 3 / 2
			}
			return NewEngine(engineName, pl.Config())
		},
		TraceFn: p.generate,
	}
}

// LayoutPoint replays one trace under the named engine on a given RAID
// layout, returning the mean write RT (µs).
func (e *Env) LayoutPoint(engineName, traceName string, level raid.Level) float64 {
	c := e.layoutCell(engineName, traceName, level)
	e.EnsureCells([]Cell{c})
	return e.CellResult(c.Key).MeanWriteRT
}

// LayoutSweep compares Native and POD write latency across layouts.
func (e *Env) LayoutSweep(traceName string) *stats.Table {
	levels := []struct {
		name  string
		level raid.Level
	}{{"RAID0", raid.RAID0}, {"RAID1", raid.RAID1}, {"RAID5", raid.RAID5}}
	var cells []Cell
	for _, l := range levels {
		cells = append(cells, e.layoutCell(Native, traceName, l.level), e.layoutCell(POD, traceName, l.level))
	}
	e.EnsureCells(cells)
	t := stats.NewTable("Ablation — RAID layout vs write RT on "+traceName,
		"Layout", "Native", "POD", "POD vs Native")
	for _, l := range levels {
		n := e.LayoutPoint(Native, traceName, l.level)
		p := e.LayoutPoint(POD, traceName, l.level)
		t.AddRowf("%s	%s	%s	%.1f%%", l.name, stats.Ms(n), stats.Ms(p), 100*p/n)
	}
	return t
}

// DegradedPoint replays one trace under POD with one failed spindle
// (RAID5 degraded mode) and returns mean read RT (µs) healthy vs
// degraded — the kind of failure-injection evaluation the paper leaves
// as future work. The healthy run is exactly the POD matrix cell.
func (e *Env) DegradedPoint(traceName string) (healthy, degraded float64) {
	p := corpusPack(traceName, e.Scale)
	hc := e.matrixCell(POD, traceName)
	dc := Cell{
		Key: "ablate/degraded/" + traceName,
		Factory: func() engine.Engine {
			cfg := BuildConfig(p.prof, e.Scale)
			cfg.Array.Fail(0)
			return core.NewPOD(cfg)
		},
		TraceFn: p.generate,
	}
	e.EnsureCells([]Cell{hc, dc})
	return e.CellResult(hc.Key).MeanReadRT, e.CellResult(dc.Key).MeanReadRT
}
