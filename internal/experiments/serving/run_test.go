package serving

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// at is podload's defaults around the four values every run states.
func at(trace string, scale float64, shards int, rate float64) Spec {
	return Spec{Trace: trace, Scale: scale, Scheme: "POD", Shards: shards, Rate: rate,
		Chunking: "fixed4k", Policy: "block", Queue: 128, ChaosSeed: 1, CrashShard: -1}
}

// TestSmoke is the end-to-end gate over the serving layer: each row is
// one run with one axis armed. Run itself fails a row whose oracle,
// audit, outage or recovery check fails (a Report is a run that passed
// them); the rows add that the feature was armed and did something.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	gauge := func(r *Report, name string) int64 { return r.Snap.Metrics.Gauges[name] }
	oracle := func(t *testing.T, r *Report) {
		if r.Oracle == nil || r.Oracle.Acked == 0 || r.Oracle.Verified == 0 {
			t.Errorf("oracle verdict %+v, want acknowledged writes and verified blocks", r.Oracle)
		}
	}
	recovered := func(t *testing.T, r *Report) {
		oracle(t, r)
		if !r.Spec.BGDedup || r.Oracle.Replayed == 0 || r.Oracle.Reverified == 0 {
			t.Errorf("oracle verdict %+v, want the scanner armed, journal records replayed and blocks re-verified", r.Oracle)
		}
	}
	streams := func(t *testing.T, r *Report) {
		var tagged int64
		for _, v := range r.Streams {
			tagged += v.Writes
		}
		if len(r.Streams) < 2 || tagged == 0 {
			t.Errorf("per-stream verdict %+v, want tagged writes from several tenants", r.Streams)
		}
	}
	for _, row := range []struct {
		name  string
		spec  Spec
		mod   func(*Spec)
		check func(*testing.T, *Report)
		want  []string // lines of the rendered report
	}{
		{name: "serve", spec: at("mixed", 0.01, 4, 200), mod: func(s *Spec) { s.RouteChunks = 256 },
			check: func(t *testing.T, r *Report) {
				if r.Snap.Completed != int64(r.Requests) {
					t.Errorf("completed %d of %d", r.Snap.Completed, r.Requests)
				}
			},
			want: []string{"podload: trace=mixed scheme=POD shards=4 clients=4 rate=200/s requests=5470 queue=128 batch=32 policy=block", "shard 3: queue-wait"}},
		{name: "metrics", spec: at("mixed", 0.01, 8, 200),
			mod: func(s *Spec) {
				s.RouteChunks, s.TraceSample = 256, 50
				s.MetricsOut, s.MetricsProm = filepath.Join(tmp, "m.json"), filepath.Join(tmp, "m.prom")
			},
			check: func(t *testing.T, r *Report) {
				samples := int64(0)
				for _, h := range r.Snap.Metrics.Histograms {
					samples += h.N
				}
				if samples == 0 || len(r.Snap.Metrics.Traces) == 0 {
					t.Errorf("%d histogram samples, %d sampled traces; the pipeline is dark", samples, len(r.Snap.Metrics.Traces))
				}
				for _, f := range []string{r.Spec.MetricsOut, r.Spec.MetricsProm} {
					if st, err := os.Stat(f); err != nil || st.Size() == 0 {
						t.Errorf("%s not written: %v", f, err)
					}
				}
			},
			want: []string{"traces: ", "metrics: "}},
		{name: "chaos-full", spec: at("mixed", 0.02, 4, 500), mod: func(s *Spec) { s.Chaos, s.ChaosSeed = "full", 7 },
			check: oracle, want: []string{"chaos: scenario=full seed=7 horizon=21.880000s deadline=off", "chaos oracle: PASS"}},
		{name: "bgdedup", spec: at("mail", 0.02, 2, 500), mod: func(s *Spec) { s.BGDedup = true },
			check: func(t *testing.T, r *Report) {
				if gauge(r, "bgdedup_reclaimed_blocks") == 0 {
					t.Error("the scanner reclaimed nothing")
				}
			},
			want: []string{"bgdedup: steps="}},
		{name: "chaos-bgdedup", spec: at("mixed", 0.02, 2, 500), mod: func(s *Spec) { s.Chaos, s.ChaosSeed = "bgdedup", 7 },
			check: recovered, want: []string{"bgdedup: steps=", "chaos oracle: PASS", "consistency PASS"}},
		{name: "chaos-globalfp", spec: at("mail", 0.02, 8, 500), mod: func(s *Spec) { s.Tier, s.Chaos, s.ChaosSeed = true, "globalfp", 11 },
			check: func(t *testing.T, r *Report) {
				recovered(t, r)
				if gauge(r, "globalfp_remaps_applied") == 0 && r.Snap.Engine.RemoteDeduped == 0 {
					t.Error("the tier neither folded a duplicate nor enabled a remote inline dedupe")
				}
				if !r.Spec.Tier {
					t.Error("tier not armed")
				}
			},
			want: []string{"globalfp: cross-shard consistency PASS", "chaos oracle: PASS", "consistency PASS"}},
		{name: "shardcrash", spec: at("mail", 0.02, 4, 500), mod: func(s *Spec) { s.Chaos, s.ChaosSeed = "shardcrash", 13 },
			check: func(t *testing.T, r *Report) {
				recovered(t, r)
				if o := r.Outage; o == nil || !o.Fired || o.Replayed == 0 || o.Shard != 3 {
					t.Errorf("outage verdict %+v, want shard 3 crashed and rejoined from its journal", o)
				}
				if !r.Spec.Tier {
					t.Error("the scenario arms the tier")
				}
			},
			want: []string{"shardcrash: shard=3 crash@4.374666s recover@8.749333s", "shardcrash: outage window closed, cluster whole", "epochs=[0 0 0 1]"}},
		{name: "flood-chaos-sector", spec: at("mixed", 0.02, 16, 20000), mod: func(s *Spec) { s.Clients, s.Chaos, s.ChaosSeed = 16, "sector", 11 },
			check: oracle, want: []string{"chaos oracle: PASS"}},
		{name: "shed", spec: at("mixed", 0.01, 8, 0), mod: func(s *Spec) { s.Policy, s.RouteChunks = "shed", 256 },
			check: func(t *testing.T, r *Report) {
				if r.Snap.Completed+r.Snap.ShedCount != int64(r.Requests) {
					t.Errorf("%d completed + %d shed of %d requests: some were neither served nor counted", r.Snap.Completed, r.Snap.ShedCount, r.Requests)
				}
			},
			want: []string{"rate=flood", "policy=shed"}},
		{name: "streams-adversarial", spec: at("", 0.1, 2, 2000), mod: func(s *Spec) { s.Streams, s.StreamProfile = true, "adversarial" },
			check: streams, want: []string{"podload: trace=adversarial", "stream 1: writes=", "stream 2: writes="}},
		{name: "streams-scan", spec: at("", 0.1, 4, 2000), mod: func(s *Spec) { s.Streams, s.StreamProfile = true, "scan" },
			check: streams, want: []string{"stream 3: writes="}},
		{name: "seqcdc", spec: at("mixed", 0.01, 2, 200), mod: func(s *Spec) { s.Chunking = "seqcdc" },
			check: func(t *testing.T, r *Report) {
				if gauge(r, "cdc_emitted_chunks") == 0 {
					t.Error("the splitter emitted nothing: CDC was not on the path")
				}
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.mod(&row.spec)
			rep, err := Run(row.spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Snap.Completed == 0 {
				t.Fatal("nothing completed")
			}
			row.check(t, rep)
			var text strings.Builder
			rep.WriteText(&text)
			for _, line := range row.want {
				if !strings.Contains(text.String(), line) {
					t.Errorf("report lacks %q:\n%s", line, text.String())
				}
			}
		})
	}
}

// TestGlobalFPSweepRecoversCapacity measures, at reduced scale, how
// much of the dedup ratio LBA sharding costs (each shard's index only
// sees its slice of the content stream) the cross-shard tier recovers:
// the same flood with the tier off and on, the background scanner
// attached either way so the delta isolates the tier itself. It checks
// the tier's deterministic effects — cross-shard folds apply, cluster
// occupancy shrinks toward the 1-shard level, inline removal never
// regresses, and serving p99 stays close to tier-off. The
// inline-recovery magnitude is wall-clock-racy by design (hints are
// asynchronous), so the full-scale numbers live in the committed
// globalfp-8 trajectory entry, not in this assertion.
func TestGlobalFPSweepRecoversCapacity(t *testing.T) {
	spec := at("mixed", 0.02, 4, 0)
	spec.BGDedup = true
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Tier = true
	tier, err := Run(spec) // passes the cross-shard audit, or fails here
	if err != nil {
		t.Fatal(err)
	}
	off, on := &base.Snap, &tier.Snap
	if on.Metrics.Gauges["globalfp_remaps_applied"] == 0 && on.Engine.RemoteDeduped == 0 {
		t.Fatal("tier neither folded a cross-shard duplicate nor enabled a remote inline dedupe")
	}
	if on.UsedBlocks >= off.UsedBlocks {
		t.Fatalf("tier did not recover capacity: %d blocks with tier, %d without", on.UsedBlocks, off.UsedBlocks)
	}
	// Inline removal: when hint delivery runs slower than the flood
	// (tiny scale, race detector) the tier recovers little — bound the
	// downside; the recovery itself is asserted at full scale by the
	// committed globalfp-8 trajectory entry.
	if on.Engine.WriteRemovalPct() < off.Engine.WriteRemovalPct()-3.0 {
		t.Fatalf("inline removal collapsed: %.2f%% with tier, %.2f%% without",
			on.Engine.WriteRemovalPct(), off.Engine.WriteRemovalPct())
	}
	// Folds are paced and settle after the serving window; p99 must
	// stay in the tier-off neighborhood even in this flood (generous
	// slack: small-scale percentiles are coarse).
	if on.Latency.Percentile(99) > off.Latency.Percentile(99)*1.25 {
		t.Fatalf("p99 blew up: %.0fus with tier, %.0fus without", on.Latency.Percentile(99), off.Latency.Percentile(99))
	}
}

// TestRunFailures: a run that fails a check is an error, not a Report;
// the one refusal that needs the trace's length is still a Refusal.
func TestRunFailures(t *testing.T) {
	s := at("mixed", 0.01, 2, 200)
	s.MetricsOut = filepath.Join(t.TempDir(), "no-such-dir", "m.json")
	if rep, err := Run(s); err == nil || rep != nil {
		t.Fatalf("unwritable -metrics-out: report %v, err %v", rep, err)
	}
	// an outage window past the end of the trace never fires
	s = at("mail", 0.02, 2, 500)
	s.Chaos, s.CrashAtUS, s.RecoverAtUS = "shardcrash", 1e12, 2e12
	if rep, err := Run(s); rep != nil || err == nil || !strings.Contains(err.Error(), "never reached") {
		t.Fatalf("crash threshold past the trace: report %v, err %v", rep, err)
	}
	s.CrashAtUS, s.RecoverAtUS = 1e12, 0 // rejoin resolves to 2/3 of the horizon, before the crash
	var refused Refusal
	if rep, err := Run(s); rep != nil || !errors.As(err, &refused) || !strings.Contains(err.Error(), "-recover-at-us") {
		t.Fatalf("rejoin before crash against the horizon: report %v, err %v", rep, err)
	}
}
