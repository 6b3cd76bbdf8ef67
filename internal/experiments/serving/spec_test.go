package serving

import (
	"errors"
	"strings"
	"testing"

	pod "github.com/pod-dedup/pod"
	"github.com/pod-dedup/pod/internal/cdc"
	"github.com/pod-dedup/pod/internal/chaos"
)

// TestSpecValidateMatrix walks the whole feature matrix — scheme ×
// chunking × streams × bgdedup × tier × chaos × shards — through
// Validate. Every cell is either admitted or refused for the first
// reason in the table below that applies to it, so a newly refused or
// newly admitted combination is a diff of this table (and of the
// admitted count under it).
func TestSpecValidateMatrix(t *testing.T) {
	type cell struct {
		scheme                 pod.Scheme
		chunking, chaos        string
		streams, bgdedup, tier bool
		shards                 int
	}
	selective := func(c cell) bool { return c.scheme == pod.SchemePOD || c.scheme == pod.SchemeSelectDedupe }
	armsTier := func(c cell) bool { return c.tier || c.chaos == "globalfp" || c.chaos == "shardcrash" }
	armsScanner := func(c cell) bool { return c.bgdedup || c.chaos == "bgdedup" || armsTier(c) }
	refusals := []struct {
		pattern      func(cell) bool
		flag, reason string
	}{
		// the read-back oracle checks the trace's ContentIDs per LBA; CDC
		// stores derived chunk IDs (ROADMAP: the CDC-aware oracle)
		{func(c cell) bool { return c.chaos != "" && c.chunking != "fixed4k" }, "-chunking", "is incompatible with -chaos"},
		// an outage is about the survivors
		{func(c cell) bool { return c.chaos == "shardcrash" && c.shards < 2 }, "-chaos shardcrash", "requires -shards >= 2"},
		// Native writes in place and never looks at chunk content
		{func(c cell) bool { return c.chunking != "fixed4k" && c.scheme == pod.SchemeNative }, "-chunking", "needs a deduplicating scheme"},
		// the three features below complement the selective inline path
		{func(c cell) bool { return c.streams && !selective(c) }, "-streams", "supports schemes Select-Dedupe and POD only"},
		{func(c cell) bool { return armsScanner(c) && !selective(c) }, "-bgdedup", "supports schemes Select-Dedupe and POD only"},
		// one shard already sees the whole content stream
		{func(c cell) bool { return armsTier(c) && c.shards < 2 }, "-globalfp", "needs 2-64 shards"},
	}

	admitted := 0
	for _, scheme := range pod.Schemes() {
		for _, algo := range cdc.Algos() {
			for _, scenario := range append([]string{""}, chaos.Scenarios()...) {
				for flags := 0; flags < 8; flags++ {
					for _, shards := range []int{1, 4} {
						c := cell{scheme, algo.String(), scenario, flags&1 != 0, flags&2 != 0, flags&4 != 0, shards}
						s := at("mixed", 0.01, c.shards, 500)
						s.Scheme, s.Chunking, s.Chaos = string(c.scheme), c.chunking, c.chaos
						s.Streams, s.BGDedup, s.Tier = c.streams, c.bgdedup, c.tier
						flag, reason := "", ""
						for _, r := range refusals {
							if r.pattern(c) {
								flag, reason = r.flag, r.reason
								break
							}
						}
						var refused Refusal
						switch err := s.Validate(); {
						case flag == "" && err != nil:
							t.Errorf("%+v refused (%v); the table admits it", c, err)
						case flag == "":
							admitted++
						case !errors.As(err, &refused) || !strings.HasPrefix(err.Error(), flag) || !strings.Contains(err.Error(), reason):
							t.Errorf("%+v: got %v, want a Refusal of %s that says %q", c, err, flag, reason)
						}
					}
				}
			}
		}
	}
	// POD and Select-Dedupe: under fixed4k everything composes at 4
	// shards (72 cells each) and everything but the tier and the two
	// scenarios that arm it at 1 (28); under either CDC chunker the same
	// minus chaos (8 + 4, twice). The other four deduplicating schemes
	// take no feature, so only the plain fault plans (none + 5, × 2
	// shard counts) and CDC without chaos (2 × 2); Native the first only.
	if want := 2*(72+28+2*12) + 4*(12+4) + 12; admitted != want {
		t.Errorf("%d cells admitted, the table above admits %d", admitted, want)
	}
}

// TestSpecValidateValues: every out-of-range value and meaningless
// pairing outside the matrix is refused, with the flag at fault named.
func TestSpecValidateValues(t *testing.T) {
	outage := func(mod func(*Spec)) func(*Spec) {
		return func(s *Spec) { s.Chaos, s.Rate, s.Shards = "shardcrash", 500, 4; mod(s) }
	}
	for _, row := range []struct {
		flag string
		mod  func(*Spec)
	}{
		{"-scale", func(s *Spec) { s.Scale = 0 }},
		{"-scale", func(s *Spec) { s.Scale = -1 }},
		{"-shards", func(s *Spec) { s.Shards = 0 }},
		{"-clients", func(s *Spec) { s.Clients = -1 }},
		{"-queue", func(s *Spec) { s.Queue = -1 }},
		{"-deadline-us", func(s *Spec) { s.DeadlineUS = -1 }},
		{"-trace-sample", func(s *Spec) { s.TraceSample = -1 }},
		{"-trace", func(s *Spec) { s.Trace = "fileserver" }},
		{"-trace", func(s *Spec) { s.Trace = "" }},
		{"-policy", func(s *Spec) { s.Policy = "drop" }},
		{"-scheme", func(s *Spec) { s.Scheme = "ZFS" }},
		{"-chunking", func(s *Spec) { s.Chunking = "rabin" }},
		{"-chaos", func(s *Spec) { s.Chaos, s.Rate = "meteor", 500 }},
		{"-rate", func(s *Spec) { s.Chaos, s.Rate = "full", 0 }},
		{"-stream-profile", func(s *Spec) { s.Streams, s.StreamProfile = true, "benign" }},
		{"-streams", func(s *Spec) { s.StreamProfile = "scan" }},
		{"-streams", func(s *Spec) { s.Streams, s.Trace = true, "mail" }},
		{"-globalfp", func(s *Spec) { s.Tier, s.Shards = true, 65 }},
		{"-crash-shard", func(s *Spec) { s.CrashShard = 0 }},
		{"-crash-at-us", func(s *Spec) { s.Chaos, s.Rate, s.CrashAtUS = "full", 500, 1000 }},
		{"-recover-at-us", func(s *Spec) { s.RecoverAtUS = 1000 }},
		{"-crash-shard", outage(func(s *Spec) { s.CrashShard = 4 })},
		{"-crash-shard", outage(func(s *Spec) { s.CrashShard = -2 })},
		{"-crash-at-us", outage(func(s *Spec) { s.CrashAtUS = -1 })},
		{"-recover-at-us", outage(func(s *Spec) { s.CrashAtUS, s.RecoverAtUS = 2000, 2000 })},
	} {
		s := at("mixed", 0.01, 2, 0)
		row.mod(&s)
		var refused Refusal
		if err := s.Validate(); !errors.As(err, &refused) || !strings.Contains(err.Error(), row.flag) {
			t.Errorf("%s: %+v: got %v, want a Refusal naming the flag", row.flag, s, err)
		}
	}
	for _, ok := range []func(*Spec){
		func(s *Spec) {},
		func(s *Spec) { s.Clients = 99 }, // capped at one per shard
		func(s *Spec) { s.Queue = 0 },    // the server's default
		func(s *Spec) { s.Scheme = "select_dedupe" },
		outage(func(s *Spec) { s.CrashShard, s.CrashAtUS, s.RecoverAtUS = 0, 1000, 2000 }),
		outage(func(s *Spec) { s.RecoverAtUS = 2000 }), // crash resolves against the horizon, in Run
	} {
		s := at("mixed", 0.01, 2, 0)
		ok(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("%+v refused: %v", s, err)
		}
	}
}
