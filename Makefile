# POD reproduction — convenience targets.

GO ?= go

.PHONY: all build vet test check bench microbench repro repro-fast smoke-serve smoke-metrics smoke-chaos smoke-bgdedup smoke-globalfp smoke-shardcrash smoke-flood smoke-streams smoke-cdc full-run bench-delta repro-check fuzz clean

all: build vet test

# CI gate: vet, build, the full test suite under the race detector,
# then short serving-mode, metrics, and chaos smoke runs. The
# experiment-matrix tests already run at reduced scale (see
# internal/experiments testScale), which keeps the race run to a couple
# of minutes.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) smoke-serve
	$(MAKE) smoke-metrics
	$(MAKE) smoke-chaos
	$(MAKE) smoke-bgdedup
	$(MAKE) smoke-globalfp
	$(MAKE) smoke-shardcrash
	$(MAKE) smoke-flood
	$(MAKE) smoke-streams
	$(MAKE) smoke-cdc
	$(MAKE) repro-check bench-delta

# Serving-mode smoke: a small sharded podload run. podload exits
# non-zero on any error or when zero requests complete, so the target
# fails if the serving layer ever wedges or drops work.
smoke-serve:
	$(GO) run ./cmd/podload -trace mixed -scale 0.01 -shards 4 -route-chunks 256 -rate 200

# Metrics smoke: the registry's own tests under the race detector, then
# an instrumented podload run. With -metrics-out podload exits non-zero
# when the snapshot has no histogram samples, so the target fails if
# the observability pipeline ever goes dark.
smoke-metrics:
	$(GO) vet ./internal/metrics/
	$(GO) test -race ./internal/metrics/
	$(GO) run ./cmd/podload -trace mixed -scale 0.01 -shards 8 -route-chunks 256 -rate 200 \
		-trace-sample 50 -metrics-out /tmp/pod-metrics-smoke.json -metrics-prom /tmp/pod-metrics-smoke.prom

# Chaos smoke: the acceptance scenario — latent sector errors, a
# whole-disk failure mid-run, and a transient-error storm — against a
# sharded POD server under the race detector. podload exits non-zero if
# the read-back integrity oracle finds a single acknowledged block lost
# or cross-referenced, so this target fails on any fault-path
# regression.
smoke-chaos:
	$(GO) run -race ./cmd/podload -trace mixed -scale 0.02 -shards 4 -rate 500 \
		-chaos full -chaos-seed 7 -metrics-out /tmp/pod-chaos-smoke.json

# Background-dedup smoke: a sharded POD server with the idle-aware
# out-of-line scanner under the race detector. -bgdedup-expect-reclaim
# makes podload exit non-zero unless the scanner actually reclaimed
# capacity, so this target fails if the scan/remap/reclaim path ever
# goes dead.
smoke-bgdedup:
	$(GO) run -race ./cmd/podload -trace mail -scale 0.02 -shards 2 -rate 500 \
		-bgdedup -bgdedup-expect-reclaim -metrics-out /tmp/pod-bgdedup-smoke.json

# Global-fingerprint-tier smoke: 8 shards with the cross-shard tier
# enabled under the race detector, latent sector faults plus a mid-run
# disk failure racing the hint/fold traffic, and the read-back oracle
# plus the post-drain cross-shard pin audit (podload runs
# Server.CheckConsistency whenever -globalfp is set, again after crash
# recovery). -globalfp-expect-remaps makes podload exit non-zero
# unless the tier actually recovered cross-shard duplicates, so this
# target fails if the advertisement/remap path ever goes dead.
smoke-globalfp:
	$(GO) run -race ./cmd/podload -trace mail -scale 0.02 -shards 8 -rate 500 \
		-globalfp -globalfp-expect-remaps -chaos globalfp -chaos-seed 11 \
		-metrics-out /tmp/pod-globalfp-smoke.json

# Shard-outage smoke: one shard crashed and rejoined mid-run with the
# global fingerprint tier live, under the race detector. The surviving
# shards must keep serving (refusals are typed shard-down errors, not
# lost acks), the epoch fence must hold, and podload exits non-zero
# unless the crash fired, the shard rejoined, the read-back oracle
# holds, and the post-rejoin cluster-wide consistency audit passes.
smoke-shardcrash:
	$(GO) run -race ./cmd/podload -trace mail -scale 0.02 -shards 4 -rate 500 \
		-chaos shardcrash -chaos-seed 13 -metrics-out /tmp/pod-shardcrash-smoke.json

# Flood smoke: 16 shards driven far past capacity under the race
# detector with the chaos read-back oracle enabled, so the batched
# cross-shard submission path is raced against injected faults on
# every CI run. The arrival rate is set well above service capacity
# (queue waits run ~100x service times), giving flood-level queue
# pressure while still defining the arrival horizon -chaos needs for
# fault placement. Small scale keeps the virtual-time window short.
smoke-flood:
	$(GO) run -race ./cmd/podload -trace mixed -scale 0.02 -shards 16 -clients 16 \
		-rate 20000 -chaos sector -chaos-seed 11 -metrics-out /tmp/pod-flood-smoke.json

# Stream-apportionment smoke: the adversarial multi-tenant sweeps under
# the race detector. TestStreamsDynamicBeatsStatic fails unless the
# locality-driven apportioner removes more writes in total than every
# static split (and than a fully shared cache on the scan mix), and the
# core property tests pin single-stream equivalence and the
# never-starved floor, so this target fails if the apportionment loop
# ever stops adapting. A serving-layer run then exercises the tagged
# path end to end (podload exits non-zero if no tagged write reaches an
# engine).
smoke-streams:
	$(GO) test -race -run 'TestStream' ./internal/experiments/ ./internal/core/ ./internal/icache/
	$(GO) test -race ./internal/locality/
	$(GO) run -race ./cmd/podload -streams -stream-profile adversarial -scale 0.1 -shards 2 -rate 2000

# CDC chunking smoke: the content-defined chunking axis under the race
# detector. The cdc package tests pin shift-invariance, the scalar
# cross-checks, and the alloc-free guards; TestChunkingShifted replays
# the shifted snapshot trace and fails unless gear and seqcdc remove
# writes where fixed4k removes exactly zero; the podsim run exercises
# the same axis through the CLI end to end.
smoke-cdc:
	$(GO) test -race ./internal/cdc/
	$(GO) test -race -run 'TestChunkingShifted|TestCDCSplitHotPathAllocFree|TestShiftedSnapshotShape' \
		./internal/experiments/ ./internal/chunk/ ./internal/workload/
	$(GO) run -race ./cmd/podsim -scheme POD -trace shifted -chunking gear -scale 0.05

# One full-scale regeneration (cheap enough to run in CI) feeds the two
# gates below: its perf trajectory goes to bench-delta, its stdout to
# repro-check.
full-run:
	$(GO) run ./cmd/podbench -scale 1 -bench-json /tmp/pod-bench-delta.json all chunking >/tmp/pod-bench-delta.txt

# Reproduction gate: the full-scale paper outputs just regenerated must
# equal the committed results_full.txt byte for byte. Only
# wall-clock-derived text is set aside first: the "[… done in …]"
# lines, the measured SHA-1 row of the overhead table, and the chunking
# section (on demand, not part of results_full.txt; its MB/s column is
# wall-clock).
REPRO_STRIP = grep -v -e 'done in' -e 'µs measured'
repro-check: full-run
	sed '/^Chunking axis/,$$d' /tmp/pod-bench-delta.txt | $(REPRO_STRIP) >/tmp/pod-repro-new.txt
	$(REPRO_STRIP) results_full.txt >/tmp/pod-repro-ref.txt
	diff /tmp/pod-repro-ref.txt /tmp/pod-repro-new.txt

# Bench-delta gate: fail on regressions of the regenerated trajectory
# against the committed BENCH_replay.json — >10% on allocations
# (deterministic, the tight gate) and >15% on wall for entries over a
# second (wall is noisy, especially right after the race suite, and
# machine-specific). Entries only in the reference (the podload flood
# sweep) are skipped, not failed.
bench-delta: full-run
	$(GO) test -run '^$$' -bench 'BenchmarkGearChunk|BenchmarkSeqCDCChunk' -benchmem ./internal/cdc/
	$(GO) run ./cmd/benchdelta -ref BENCH_replay.json -new /tmp/pod-bench-delta.json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark harness regenerates every paper artifact at 0.1 scale.
bench:
	$(GO) test -bench=. -benchmem .

# Hot-path microbenchmarks, one layer each: the CDC landmark sweeps
# (BenchmarkSeqMarks / BenchmarkGearMarks) beside the whole split
# (rotating windows: *Chunk; sequential requests: *Stream), fixed-4K
# split and fingerprinting, the Map table, the iCache's fingerprint
# directory (a miss's insert + evict + ghost-evict, one Swap Module
# repartition, one three-stream re-apportionment), and the tier's
# control plane (hint-table put/get, a tick's grant drain, the inbox
# behind a 1k and a 100k backlog). The CDC split, the directory and the
# hint/grant benchmarks fail unless they run at 0 allocs/op.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/cdc/ ./internal/chunk/ ./internal/probe/ ./internal/maptable/ ./internal/icache/ ./internal/globalfp/

# Full-scale reproduction of every table and figure (a few minutes).
repro:
	$(GO) run ./cmd/podbench

# Subsampled reproduction for a quick look.
repro-fast:
	$(GO) run ./cmd/podbench -scale 0.1

# Short fuzz pass over the parsers, the journal recovery, the CDC
# landmark sweeps (batched bitmap vs the scalar predicate) and the
# iCache's fingerprint directory (vs its slice-and-linear-search model;
# an input is a thousand operations, so minimising one is capped).
fuzz:
	$(GO) test -fuzz FuzzReadText -fuzztime 20s ./internal/trace/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 20s ./internal/trace/
	$(GO) test -fuzz FuzzLoad -fuzztime 20s ./internal/maptable/
	$(GO) test -fuzz FuzzSeqMarks -fuzztime 20s ./internal/cdc/
	$(GO) test -fuzz FuzzGearMarks -fuzztime 20s ./internal/cdc/
	$(GO) test -fuzz FuzzDirectoryOps -fuzztime 20s -fuzzminimizetime 1s ./internal/icache/

clean:
	$(GO) clean ./...
