package main

import (
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/pod-dedup/pod/internal/api"
	"github.com/pod-dedup/pod/internal/trace"
	"github.com/pod-dedup/pod/internal/workload"
)

func quickOptions(seed int64) options {
	procs := min(runtime.NumCPU(), 4)
	return options{seed: seed, quick: true, procs: procs, clients: procs}
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", benchmarkPath), &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCatalogue holds BENCHMARK.json to the names
// and units the program emits, in both directions, and to the limits of
// the benchmark contract.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []boundedMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d, the limit is %d", kind, len(got), len(want), limit)
		}
		have := map[string]string{}
		for _, g := range got {
			have[g.Name] = g.Unit
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: %q (%q) is not a valid metric name and unit", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %q is used twice", kind, g.Name)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: %s has direction %q", kind, g.Name, g.Better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: %s has bound %g outside (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
		for _, w := range want {
			if unit, ok := have[w.name]; !ok || unit != w.unit {
				t.Errorf("%s: the program emits %s in %q, BENCHMARK.json has %q (listed: %v)", kind, w.name, w.unit, unit, ok)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)

	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// TestQuickEndToEnd runs every workload's end-to-end protocol at smoke
// size: every catalogued metric is emitted and is not zero, nothing
// fails, and a second run of an exact workload repeats every
// virtual-time figure to the last digit.
func TestQuickEndToEnd(t *testing.T) {
	virtual := []string{"sim_write_mean_us", "sim_read_mean_us", "sim_write_p99_us", "sim_read_p99_us",
		"sojourn_mean_ms", "sojourn_p99_ms", "sim_capacity_rps", "writes_removed_pct", "stored_per_logical"}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a, err := runEndToEnd(s, quickOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", a.Correct, a.Attempted, a.Failed, a.Notes)
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, the catalogue has %d", len(a.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := a.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (emitted: %v), want a positive value in %q", d.name, v, ok, d.unit)
				}
			}
			if !s.exact || raceEnabled {
				return
			}
			b, err := runEndToEnd(s, quickOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range virtual {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v from the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestQuickTraced runs every workload's per-layer protocol at smoke
// size and holds the bypass predictions: a layer the workload's
// configuration switches off reports exactly nothing.
func TestQuickTraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			if raceEnabled && (s.tier || s.kind == kindCDC) {
				t.Skip("ten passes of the tier or the chunkers take a minute under the race detector; run without it")
			}
			rec, err := runTraced(s, quickOptions(0))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", rec.Correct, rec.Failed, rec.Notes)
			}
			if len(rec.Metrics) != len(perLayer) {
				t.Errorf("emitted %d metrics, the catalogue has %d", len(rec.Metrics), len(perLayer))
			}
			zero := func(names ...string) {
				for _, n := range names {
					if v := rec.Metrics[n].Value; v != 0 {
						t.Errorf("%s = %v on a workload that bypasses its layer", n, v)
					}
				}
			}
			positive := func(names ...string) {
				for _, n := range names {
					if v := rec.Metrics[n].Value; !(v > 0) {
						t.Errorf("%s = %v on the workload that exercises its layer", n, v)
					}
				}
			}
			positive("engine.write_ns", "engine.read_ns", "ladder.sum_ns_per_req", "maptable.set_ns", "raid.write_ns")
			if s.kind == kindCDC {
				positive("cdc.gear_mbps", "cdc.seqcdc_mbps", "cdc.materialize_mbps", "cdc.chunks_per_req", "cdc.mean_chunk_bytes")
				zero("chunk.split_fp_ns_per_req")
			} else {
				zero("cdc.gear_mbps", "cdc.seqcdc_mbps", "cdc.materialize_mbps", "cdc.chunks_per_req", "cdc.mean_chunk_bytes")
			}
			if s.tier {
				positive("globalfp.ads_per_req", "globalfp.table_entries", "globalfp.advertise_ns", "bgdedup.scanned_blocks")
			} else {
				zero("globalfp.ads_per_req", "globalfp.dups_detected", "globalfp.hints_broadcast", "globalfp.remaps_applied",
					"globalfp.table_entries", "globalfp.advertise_ns", "bgdedup.scanned_blocks", "bgdedup.reclaimed_blocks")
			}
			if s.stream {
				positive("locality.streams", "locality.record_ns", "icache.stream_lookup_ns")
			} else {
				zero("locality.streams", "locality.record_ns", "icache.stream_lookup_ns", "icache.stream_insert_ns")
			}
			if s.kind == kindServe {
				positive("server.submit_ns_per_req", "server.null_ns_per_req", "server.route_ns", "server.sojourn_p50_ms")
				zero("replay.loop_ns_per_req")
			} else {
				positive("replay.loop_ns_per_req")
				zero("server.new_ms", "server.submit_ns_per_req", "server.close_ms", "server.null_ns_per_req", "server.route_ns")
			}
		})
	}
}

// TestGateCatchesCorruptReference corrupts one block of the reference
// map and expects the read-back gate to count exactly that block.
func TestGateCatchesCorruptReference(t *testing.T) {
	s, _ := specByName("replay-homes")
	in, err := buildInput(s, quickOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	_, systems := newDriver(in, 1).observed(&samples{})
	clean := &record{}
	gate(clean, in, systems, "clean")
	if clean.Failed != 0 || clean.Attempted == 0 {
		t.Fatalf("clean reference: attempted=%d failed=%d", clean.Attempted, clean.Failed)
	}
	var victim *trace.Request
	for i := range in.tr.Requests {
		if r := &in.tr.Requests[i]; r.Op == trace.Write {
			victim = r
		}
	}
	in.oracle.RecordWrite(&api.Request{Op: trace.Write, LBA: victim.LBA, Content: []api.ContentID{victim.Content[0] + 1}}, 0)
	corrupt := &record{}
	gate(corrupt, in, systems, "corrupted")
	if corrupt.Failed != 1 {
		t.Fatalf("corrupted reference: failed=%d, want 1 (%v)", corrupt.Failed, corrupt.Notes)
	}
}

// TestSeedPlumbing holds the rebuilt generators to the repository's own
// at seed 0, request for request, and expects another seed to differ.
func TestSeedPlumbing(t *testing.T) {
	const scale = 0.01
	want, warm, dims := workload.MixedTrace(scale)
	got, gotWarm, gotDims := mixedTrace(scale, 0)
	if !reflect.DeepEqual(got, want) || gotWarm != warm || gotDims != dims {
		t.Error("mixedTrace(seed 0) differs from workload.MixedTrace")
	}
	if other, _, _ := mixedTrace(scale, 1); reflect.DeepEqual(other.Requests, want.Requests) {
		t.Error("mixedTrace(seed 1) equals seed 0")
	}

	wantS, warmS, dimsS := workload.ShiftedSnapshot(2.0 / 48)
	gotS, gotWarmS, gotDimsS := shiftedTrace(2.0/48, 0)
	if !reflect.DeepEqual(gotS, wantS) || gotWarmS != warmS || gotDimsS != dimsS {
		t.Error("shiftedTrace(seed 0) differs from workload.ShiftedSnapshot")
	}
	otherS, _, _ := shiftedTrace(2.0/48, 1)
	if reflect.DeepEqual(otherS.Requests, wantS.Requests) {
		t.Error("shiftedTrace(seed 1) equals seed 0")
	}
	for i := range otherS.Requests {
		// only content identity moves: structure is the generator's
		a, b := otherS.Requests[i], wantS.Requests[i]
		if a.Time != b.Time || a.Op != b.Op || a.LBA != b.LBA || a.N != b.N {
			t.Fatalf("shiftedTrace(seed 1) changed the structure of request %d", i)
		}
	}

	for _, name := range []string{"replay-mail", "replay-homes"} {
		s, _ := specByName(name)
		p, _ := workload.ByName(s.source)
		wantTr, _ := workload.Generate(p, s.quick)
		in0, err := buildInput(s, quickOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in0.tr, wantTr) {
			t.Errorf("%s: seed 0 differs from workload.Generate", name)
		}
		in1, err := buildInput(s, quickOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(in1.tr.Requests, wantTr.Requests) {
			t.Errorf("%s: seed 1 equals seed 0", name)
		}
	}
}

// TestCompare drives -compare on synthetic reports: runs gathered by
// repeating -out are judged by their medians, a change beyond the bound
// in the worse direction is a regression, one in the better direction
// is not, and runs from different environments are refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	contract := filepath.Join("..", benchmarkPath)
	write := func(name string, env environment, wallRPS ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range wallRPS {
			rec := newRecord(specs[0], options{}, endToEnd)
			for _, d := range endToEnd {
				rec.set(d.name, single(100, 1))
			}
			rec.set("wall_rps", single(v, 1))
			rec.Attempted, rec.Correct = 1000, true
			if err := writeReport(path, &report{Env: env, Workloads: []*record{rec}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	env := environment{GoVersion: "go", GOMAXPROCS: 2, GOGC: 200, Clients: 2, Seconds: 6}
	base := write("base.json", env, 90, 100, 110)
	same := write("same.json", env, 95, 100, 400) // median 100: the outlier does not decide
	slower := write("slower.json", env, 60, 70, 80)
	faster := write("faster.json", env, 190, 200, 210)
	other := env
	other.GOMAXPROCS = 4
	elsewhere := write("elsewhere.json", other, 100)

	for _, c := range []struct {
		name string
		b    string
		want int
	}{{"same", same, 0}, {"slower", slower, 1}, {"faster", faster, 0}, {"other environment", elsewhere, 2}} {
		var out strings.Builder
		if got := compareFiles(contract, base, c.b, &out); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
	if err := writeReport(base, &report{Env: other}); err == nil {
		t.Error("appending a run from another environment to base.json was not refused")
	}
}

// TestResultLine holds the one-line result to the driver's contract: the
// four keys, every metric of the mode, value and unit only.
func TestResultLine(t *testing.T) {
	if got := joinBoolValue([]string{"--workload", "x", "--trace", "1", "--seed", "3"}, "trace"); !reflect.DeepEqual(got, []string{"--workload", "x", "--trace=1", "--seed", "3"}) {
		t.Errorf("joinBoolValue = %v", got)
	}
	if got := joinBoolValue([]string{"-trace", "-quick"}, "trace"); !reflect.DeepEqual(got, []string{"-trace", "-quick"}) {
		t.Errorf("joinBoolValue = %v", got)
	}
	for _, v := range [][]float64{{}, {3}, {1, 2, 3, 4}} {
		q1, med, q3 := quartiles(v)
		if !(q1 <= med && med <= q3) {
			t.Errorf("quartiles(%v) = %v %v %v", v, q1, med, q3)
		}
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99); p != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", p)
	}
	if p := percentile([]float64{1, 2, 3, 4}, 50); p != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", p)
	}
}
