package experiments

// These tests double as regression checks on the reproduction: they run
// the experiments at a reduced scale and assert the qualitative shapes
// the paper reports. A change that silently breaks a figure's shape
// fails here.

import (
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/engine"
)

// testScale keeps the full matrix affordable in unit-test time while
// preserving cache pressure (memory budgets scale along).
const testScale = 0.1

func testEnv() *Env { return NewEnv(testScale, 0) }

func findRow(rows []NormRow, engine, trace string) float64 {
	for _, r := range rows {
		if r.Engine == engine && r.Trace == trace {
			return r.Value
		}
	}
	return -1
}

func TestTable1Static(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"POD", "iDedup", "dynamic/adaptive", "Small-write elimination"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	env := testEnv()
	_, chars := env.Table2()
	if len(chars) != 3 {
		t.Fatalf("traces = %d", len(chars))
	}
	// mail is the largest trace with the largest requests
	if chars[2].IOs <= chars[0].IOs || chars[2].AvgReqKB <= chars[0].AvgReqKB {
		t.Error("mail must dominate web-vm in I/Os and request size")
	}
	// homes has the highest write ratio
	if chars[1].WriteRatio <= chars[0].WriteRatio {
		t.Error("homes write ratio must exceed web-vm's")
	}
}

func TestFig1Shape(t *testing.T) {
	env := testEnv()
	_, buckets := env.Fig1()
	for tn, bs := range buckets {
		var small, total int64
		for i, b := range bs {
			total += b.Total
			if i <= 1 {
				small += b.Total
			}
			if b.Redundant > b.Total {
				t.Fatalf("%s: redundant exceeds total", tn)
			}
		}
		if tn != "mail" && float64(small)/float64(total) < 0.5 {
			t.Errorf("%s: small writes are not the majority", tn)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	env := testEnv()
	_, rows := env.Fig2()
	byTrace := map[string]Fig2Row{}
	for _, r := range rows {
		byTrace[r.Trace] = r
		// I/O redundancy strictly exceeds capacity redundancy
		if r.IORedundancyPct <= r.DiffLBAPct {
			t.Errorf("%s: I/O redundancy must exceed capacity redundancy", r.Trace)
		}
	}
	if byTrace["mail"].IORedundancyPct <= byTrace["homes"].IORedundancyPct {
		t.Error("mail must be more redundant than homes")
	}
}

func TestFig3Shape(t *testing.T) {
	env := testEnv()
	_, rows := env.Fig3(nil)
	if len(rows) != 5 {
		t.Fatalf("sweep points = %d", len(rows))
	}
	// write RT must fall monotonically as the index cache grows
	for i := 1; i < len(rows); i++ {
		if rows[i].WriteRTms > rows[i-1].WriteRTms*1.05 {
			t.Errorf("write RT must fall with index share: %.2f -> %.2f at %.0f%%",
				rows[i-1].WriteRTms, rows[i].WriteRTms, rows[i].IndexFrac*100)
		}
	}
	// read RT must be worse at 90% index than at its minimum (the
	// read cache squeeze; the paper's read-side gradient)
	min := rows[0].ReadRTms
	for _, r := range rows {
		if r.ReadRTms < min {
			min = r.ReadRTms
		}
	}
	// at reduced scale the read-side squeeze may only cancel (not
	// dominate) the queue-relief gain; it must at least not improve
	if last := rows[len(rows)-1].ReadRTms; last < min*0.98 {
		t.Errorf("read RT at 90%% index (%.2f) must not materially beat the sweep minimum (%.2f)", last, min)
	}
}

func TestFig8Shape(t *testing.T) {
	env := testEnv()
	_, rows := env.Fig8()
	for _, tn := range TraceNames {
		native := findRow(rows, Native, tn)
		sd := findRow(rows, SelectDedupe, tn)
		if native != 100 {
			t.Fatalf("%s: Native must normalize to 100", tn)
		}
		if sd >= 100 {
			t.Errorf("%s: Select-Dedupe (%.1f) must beat Native", tn, sd)
		}
	}
	// mail benefits the most, homes the least (the paper's ordering)
	if !(findRow(rows, SelectDedupe, "mail") < findRow(rows, SelectDedupe, "web-vm")) {
		t.Error("Select-Dedupe must help mail more than web-vm")
	}
	if !(findRow(rows, SelectDedupe, "web-vm") < findRow(rows, SelectDedupe, "homes")) {
		t.Error("Select-Dedupe must help web-vm more than homes")
	}
	// Full-Dedupe regresses on homes
	if findRow(rows, FullDedupe, "homes") <= 100 {
		t.Error("Full-Dedupe must degrade homes")
	}
}

func TestFig9Shapes(t *testing.T) {
	env := testEnv()
	_, w := env.Fig9Write()
	_, r := env.Fig9Read()

	// 9a: Select-Dedupe cuts write RT everywhere; Full-Dedupe hurts
	// homes writes
	for _, tn := range TraceNames {
		if findRow(w, SelectDedupe, tn) >= 100 {
			t.Errorf("9a %s: Select-Dedupe must cut write RT", tn)
		}
	}
	if findRow(w, FullDedupe, "homes") <= 100 {
		t.Error("9a homes: Full-Dedupe must increase write RT")
	}
	// 9b: Full-Dedupe's read amplification hurts web-vm and homes but
	// not mail (where write relief dominates)
	if findRow(r, FullDedupe, "homes") <= 100 {
		t.Error("9b homes: Full-Dedupe must degrade reads")
	}
	if findRow(r, FullDedupe, "mail") >= 100 {
		t.Error("9b mail: Full-Dedupe must improve reads")
	}
	// Select-Dedupe reads stay within a hair of Native or better
	for _, tn := range TraceNames {
		if v := findRow(r, SelectDedupe, tn); v > 110 {
			t.Errorf("9b %s: Select-Dedupe read RT %.1f too far above Native", tn, v)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	env := testEnv()
	_, rows := env.Fig10()
	for _, tn := range TraceNames {
		full := findRow(rows, FullDedupe, tn)
		sd := findRow(rows, SelectDedupe, tn)
		id := findRow(rows, IDedup, tn)
		if full >= 100 || sd >= 100 {
			t.Errorf("%s: dedup schemes must save capacity", tn)
		}
		if full > sd {
			t.Errorf("%s: Full-Dedupe (%.1f) must save at least as much as Select-Dedupe (%.1f)", tn, full, sd)
		}
		// the paper's claim: Select-Dedupe achieves comparable or
		// better savings than iDedup
		if sd > id {
			t.Errorf("%s: Select-Dedupe (%.1f) must save at least as much as iDedup (%.1f)", tn, sd, id)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	env := testEnv()
	_, rows := env.Fig11()
	for _, tn := range TraceNames {
		full := findRow(rows, FullDedupe, tn)
		sd := findRow(rows, SelectDedupe, tn)
		pd := findRow(rows, POD, tn)
		id := findRow(rows, IDedup, tn)
		if !(full >= pd && pd >= sd*0.97 && sd > id) {
			t.Errorf("%s: removal ordering Full(%.1f) ≥ POD(%.1f) ≥ Select(%.1f) > iDedup(%.1f) violated",
				tn, full, pd, sd, id)
		}
	}
}

func TestOverheadShape(t *testing.T) {
	env := testEnv()
	_, rows, sha1us := env.Overhead()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NVRAMPeakBytes <= 0 {
			t.Errorf("%s: NVRAM peak must be positive", r.Trace)
		}
		// the paper reports single-megabyte footprints; at test scale
		// they must stay small
		if r.NVRAMPeakBytes > 64<<20 {
			t.Errorf("%s: NVRAM peak %.1f MB implausibly large", r.Trace, float64(r.NVRAMPeakBytes)/(1<<20))
		}
	}
	if sha1us <= 0 || sha1us > 1000 {
		t.Errorf("sha1 cost %.2fµs implausible", sha1us)
	}
}

func TestResultCaching(t *testing.T) {
	env := testEnv()
	a := env.Result(Native, "homes")
	b := env.Result(Native, "homes")
	if a != b {
		t.Fatal("repeated Result must return the cached pointer")
	}
}

func TestNewEngineUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := testEnv().pack("homes")
	NewEngine("nope", BuildConfig(p.prof, 1))
}

// TestPlannerFoldsDefaultPointsOntoMatrix verifies the cross-figure
// deduplication: sweep points whose knob sits at the platform default
// must reuse the (engine, trace) matrix cell rather than replaying it.
func TestPlannerFoldsDefaultPointsOntoMatrix(t *testing.T) {
	env := testEnv()
	matrix := env.Result(SelectDedupe, "homes")

	// threshold 3 is the default — same cached result, no new replay
	rt, _ := env.ThresholdPoint("homes", 3)
	if rt != matrix.MeanRT {
		t.Errorf("threshold-3 point (%.2f) must reuse the Select-Dedupe/homes matrix cell (%.2f)", rt, matrix.MeanRT)
	}
	if got := env.CellResult(key(SelectDedupe, "homes")); got != matrix {
		t.Error("threshold-3 must not replace the cached matrix result")
	}

	// healthy half of the degraded pair is the POD matrix cell
	pod := env.Result(POD, "homes")
	healthy, _ := env.DegradedPoint("homes")
	if healthy != pod.MeanReadRT {
		t.Errorf("healthy degraded point (%.2f) must reuse POD/homes (%.2f)", healthy, pod.MeanReadRT)
	}

	// and the same sharing works in the other direction: a sweep run
	// first seeds the matrix
	env2 := testEnv()
	env2.StripeUnitPoint("web-vm", 64) // default stripe ≡ POD/web-vm
	env2.mu.Lock()
	_, seeded := env2.results[key(POD, "web-vm")]
	env2.mu.Unlock()
	if !seeded {
		t.Error("default stripe point must be cached under the POD/web-vm matrix key")
	}
}

// TestFig3SharesMatrixCell pins the Fig3 50% index-share point to the
// Full-Dedupe/mail matrix replay.
func TestFig3SharesMatrixCell(t *testing.T) {
	env := testEnv()
	_, rows := env.Fig3([]float64{0.3, 0.5})
	matrix := env.Result(FullDedupe, "mail")
	for _, r := range rows {
		if r.IndexFrac == 0.5 && r.ReadRTms != matrix.MeanReadRT/1000 {
			t.Errorf("fig3@0.5 read RT %.3f must equal matrix cell %.3f", r.ReadRTms, matrix.MeanReadRT/1000)
		}
	}
}

func TestEnsureCellsDeduplicatesWithinBatch(t *testing.T) {
	env := testEnv()
	built := 0
	p := corpusPack("homes", env.Scale)
	cell := Cell{
		Key: "test/dup-batch",
		Factory: func() engine.Engine {
			built++
			return NewEngine(Native, BuildConfig(p.prof, env.Scale))
		},
		TraceFn: p.generate,
	}
	env.EnsureCells([]Cell{cell, cell, cell})
	if built != 1 {
		t.Fatalf("duplicate keys in one batch built %d engines, want 1", built)
	}
	if env.CellResult("test/dup-batch") == nil {
		t.Fatal("missing cached result")
	}
}

func TestThresholdAblation(t *testing.T) {
	env := testEnv()
	rt1, rem1 := env.ThresholdPoint("homes", 1)
	rt6, rem6 := env.ThresholdPoint("homes", 6)
	if rt1 <= 0 || rt6 <= 0 {
		t.Fatal("bad response times")
	}
	// a lower threshold always dedupes at least as much
	if rem1 < rem6 {
		t.Errorf("threshold 1 removal (%.1f) must be ≥ threshold 6 (%.1f)", rem1, rem6)
	}
}

func TestStripeUnitAblation(t *testing.T) {
	env := testEnv()
	if rt := env.StripeUnitPoint("web-vm", 64); rt <= 0 {
		t.Fatal("bad response time")
	}
}

func TestDegradedAblation(t *testing.T) {
	env := testEnv()
	healthy, degraded := env.DegradedPoint("homes")
	if degraded <= healthy {
		t.Errorf("degraded reads (%.0fµs) must be slower than healthy (%.0fµs)", degraded, healthy)
	}
}

func TestSchemesTableIncludesAllEngines(t *testing.T) {
	env := NewEnv(0.02, 0) // tiny: this matrix is 7 engines × 3 traces
	out := env.SchemesTable().String()
	for _, en := range AllEngines {
		if !strings.Contains(out, en) {
			t.Errorf("schemes table missing %q", en)
		}
	}
}

func TestDupSweepMonotone(t *testing.T) {
	env := NewEnv(0.02, 0)
	low := env.DupSweepPoint(POD, 0)
	high := env.DupSweepPoint(POD, 0.9)
	if high >= low {
		t.Errorf("POD write RT at 90%% redundancy (%.0fµs) must beat 0%% (%.0fµs)", high, low)
	}
	// Native is indifferent to redundancy by construction (same request
	// stream shape); allow wide tolerance for content-layout noise
	nlow := env.DupSweepPoint(Native, 0)
	nhigh := env.DupSweepPoint(Native, 0.9)
	if nhigh < nlow/2 {
		t.Errorf("Native should not benefit from redundancy: %.0f vs %.0f", nhigh, nlow)
	}
}

func TestLayoutSweepRAID5Penalty(t *testing.T) {
	env := NewEnv(0.05, 0)
	r0 := env.LayoutPoint(Native, "web-vm", 0) // RAID0
	r5 := env.LayoutPoint(Native, "web-vm", 1) // RAID5
	if r5 <= r0 {
		t.Errorf("RAID5 small writes (%.0fµs) must cost more than RAID0 (%.0fµs)", r5, r0)
	}
}
