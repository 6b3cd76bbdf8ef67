# POD reproduction — convenience targets.

GO ?= go

.PHONY: all build vet test check smoke smoke-cli microbench repro repro-fast full-run bench-delta repro-check fuzz loc traffic clean

all: build vet test

# CI gate: gofmt (fails, listing the files it would change), vet,
# build, the full test suite under the race detector — which holds the
# serving-layer smoke table (TestSmoke in internal/experiments/serving:
# one run per armed feature, each under the checks that feature
# promises) and podload's argv tests —, the CLI smoke, and
# the two gates over one full-scale regeneration. The experiment-matrix
# tests already run at reduced scale (see internal/experiments
# testScale), which keeps the race run to a couple of minutes. The
# tier's packages run again at one, two and four threads: settlement
# runs every shard's agent at once, so what it converges to must not
# depend on how many cores interleave them. The replay package joins
# them: replay.RunAll fans a batch out over goroutines, and its order
# and determinism tests must hold at every thread count. The zero-allocation guards
# of microbench (ZERO_ALLOC_BENCH) run once each: every one checks
# itself with testing.AllocsPerRun after its timed loop, so one
# iteration is enough to fail (the allocs/op column of a one-iteration
# run counts warm-up, not the guard). The traffic gate follows (every
# production function has traffic or a stated reason). It ends by
# printing the size figures (loc), which gate nothing.
check:
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/globalfp/ ./internal/server/ ./internal/replay/
	$(GO) test -run '^$$' -bench '$(ZERO_ALLOC_BENCH)' -benchtime 1x ./internal/probe/ ./internal/icache/ ./internal/maptable/ ./internal/globalfp/ ./internal/engine/
	$(MAKE) smoke-cli
	$(MAKE) repro-check bench-delta
	$(MAKE) traffic
	$(MAKE) loc

# The size figures a refactor PR states its delta in and every
# ROADMAP re-anchor quotes: Go lines of non-test code outside bench/, of
# tests, and of bench/, engine.Base's nil checks, and the exported
# option fields the knob census counts (knobs_test.go). Print only.
GOFILES = find . -name '*.go' -not -path './.*'
loc:
	@echo "non-test lines outside bench/: $$($(GOFILES) -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test lines outside bench/:     $$($(GOFILES) -not -path './bench/*' -name '*_test.go' | xargs cat | wc -l)"
	@echo "bench/ lines:                  $$($(GOFILES) -path './bench/*' | xargs cat | wc -l)"
	@echo "'!= nil' in engine/base.go:    $$(grep -c '!= nil' internal/engine/base.go)"
	@echo "exported Config/Params fields: $$($(GO) test -count=1 -run '^TestKnobCensus$$' -v . | sed -n 's/.*knob census: \([0-9]*\).*/\1/p')"

# Production coverage, and the gate on it: every production function
# has traffic or a stated reason. Every production entry point —
# podbench, podload, podsim, the trace tools, benchdelta, the five
# examples and bench — is built with coverage of every package on, and
# the matrix below runs them into one GOCOVERDIR: podbench's paper set
# plus the on-demand experiments, podload over every scheme, every
# -chaos scenario, the tier (with a shard crash), streams, CDC, shedding
# and deadlines, podload's and podbench's perf trajectory merged into
# one file and compared with itself by benchdelta, podsim over a
# generated trace file, tracefilter and podsim over the committed FIU
# record sample (testdata/fiu-sample.srt), and bench -quick (end to
# end, traced, and compared). traffic.awk then fails on a function no run executed that
# traffic.allow does not list with a reason class (TRAFFIC_CLASSES), and
# on a listed function that has traffic now or is gone. It writes the
# statements no run executed, per file, to $(TRAFFIC)/statements.txt,
# and ends by printing the statement coverage (`go tool cover -func`'s
# total) a [simplicity] change quotes beside loc. ~35 s on two cores
# from a cold build cache.
TRAFFIC ?= /tmp/pod-traffic
TRAFFIC_BINS = podbench podload podsim tracegen tracestat tracefilter benchdelta
TRAFFIC_CLASSES = fault input audit reference bench api interface
TRAFFIC_EXAMPLES = adaptivecache crashrecovery mailserver quickstart webserver
traffic:
	@rm -rf $(TRAFFIC) && mkdir -p $(TRAFFIC)/bin $(TRAFFIC)/cov
	@for b in $(TRAFFIC_BINS); do $(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/bin/$$b ./cmd/$$b || exit 1; done
	@for e in $(TRAFFIC_EXAMPLES); do $(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/bin/$$e ./examples/$$e || exit 1; done
	@$(GO) build -cover -coverpkg=./... -o $(TRAFFIC)/bin/bench ./bench
	@set -e; export GOCOVERDIR=$(TRAFFIC)/cov; B=$(TRAFFIC)/bin; T=$(TRAFFIC); \
	run() { "$$@" >/dev/null 2>&1 || { echo "traffic: failed: $$*"; exit 1; }; }; \
	run $$B/podbench -scale 0.05 all capacity streams chunking; \
	run $$B/podbench -scale 0.05 -workers 2 -bench-json $$T/b.json -metrics-out $$T/pm.json -metrics-prom $$T/pm.prom -trace-sample 50 fig8; \
	run $$B/podload -shards 2 -scale 0.05 -bench-json $$T/b.json; \
	run $$B/benchdelta -ref $$T/b.json -new $$T/b.json; \
	for s in Native I/O-Dedup Post-Process Full-Dedupe iDedup Select-Dedupe POD; do run $$B/podload -scheme $$s -shards 2 -scale 0.05; done; \
	for c in sector diskfail storm limp full bgdedup globalfp shardcrash; do run $$B/podload -chaos $$c -rate 400 -shards 4 -scale 0.05; done; \
	run $$B/podload -globalfp -chaos shardcrash -rate 400 -shards 4 -scale 0.05; \
	run $$B/podload -globalfp -shards 4 -scale 0.05 -metrics-out $$T/m.json -metrics-prom $$T/m.prom -trace-sample 10; \
	for p in adversarial scan; do run $$B/podload -streams -stream-profile $$p -shards 2 -scale 0.05; done; \
	run $$B/podload -streams -shards 2 -scale 0.05; \
	run $$B/podload -chunking gear -shards 2 -scale 0.05; \
	run $$B/podload -chunking seqcdc -bgdedup -shards 2 -scale 0.05; \
	run $$B/podload -policy shed -queue 2 -shards 2 -scale 0.05; \
	run $$B/podload -rate 2000 -deadline-us 20000 -shards 2 -scale 0.05; \
	run $$B/podload -trace web-vm -shards 3 -clients 2 -scale 0.05; \
	run $$B/tracegen -trace mail -scale 0.02 -o $$T/mail.trace; \
	run $$B/tracegen -trace homes -scale 0.02 -format binary -o $$T/homes.bin; \
	run $$B/tracestat $$T/mail.trace; \
	run $$B/tracestat -binary -reassemble 1000 $$T/homes.bin; \
	run $$B/tracestat -builtin web-vm -scale 0.02; \
	run $$B/tracefilter -in-binary -ops W -from 1s -reassemble 1ms -out-binary -o $$T/w.bin $$T/homes.bin; \
	run $$B/tracefilter -ops R -to 60s -o $$T/r.trace $$T/mail.trace; \
	run $$B/tracefilter -in-fiu -reassemble 1ms -o $$T/fiu.trace testdata/fiu-sample.srt; \
	run $$B/podsim -fiu -file testdata/fiu-sample.srt; \
	run $$B/podsim -file $$T/mail.trace -scheme POD -history -latencies $$T/lat.csv; \
	run $$B/podsim -trace homes -scheme iDedup -scale 0.05; \
	run $$B/podsim -trace shifted -scheme POD -chunking seqcdc -scale 0.05; \
	for e in $(TRAFFIC_EXAMPLES); do run $$B/$$e; done; \
	run $$B/bench -quick -out $$T/q.json; \
	run $$B/bench -quick -trace; \
	run $$B/bench -quick -trace -workload serve-tier -spans-out $$T/spans.csv; \
	run $$B/bench -compare $$T/q.json $$T/q.json
	@$(GO) tool covdata textfmt -i=$(TRAFFIC)/cov -o $(TRAFFIC)/cover.out
	@$(GO) tool cover -func=$(TRAFFIC)/cover.out >$(TRAFFIC)/func.txt
	@awk -F'[: ]' 'NR > 1 { k = $$1 ":" $$2; n[k] = $$3; if ($$4 > 0) hit[k] = 1; file[k] = $$1 } \
		END { for (k in n) if (!hit[k]) z[file[k]] += n[k]; for (f in z) printf "%6d %s\n", z[f], f }' \
		$(TRAFFIC)/cover.out | sort -k2 >$(TRAFFIC)/statements.txt
	@awk -v module=$$($(GO) list -m) -v classes="$(TRAFFIC_CLASSES)" -f traffic.awk traffic.allow $(TRAFFIC)/func.txt
	@echo "statement coverage: $$(awk '$$1 == "total:" { print $$NF }' $(TRAFFIC)/func.txt)"

# Smoke, on its own: the serving-layer table (serve, metrics, the chaos
# scenarios under the read-back oracle, background dedup, the tier, a
# shard outage, a flood, shedding, tenant streams, CDC — the rows of
# TestSmoke say what each asserts), then the CLI lines.
smoke: smoke-cli
	$(GO) test -race -run 'TestSmoke' ./internal/experiments/serving/

# The content-defined chunking axis through the replay CLI, which has
# no test of its own: podsim exits non-zero if the replay fails.
smoke-cli:
	$(GO) run -race ./cmd/podsim -scheme POD -trace shifted -chunking gear -scale 0.05
	$(GO) run ./cmd/podsim -scheme Select-Dedupe -trace shifted -chunking gear -scale 0.05

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

# Bench-delta gate: fail on allocation regressions (>10%; deterministic
# for a binary and a trace) of the regenerated trajectory against the
# committed BENCH_replay.json. Wall deltas are printed, not judged:
# they are machine-specific and noisy right after the race suite, and
# belong to `bench -compare`'s alternating pairs. Entries only in the
# reference (the podload flood sweep) are skipped, not failed. The CDC
# split benchmarks — rotating windows and, the shape a replay issues,
# sequential requests down one stream — fail unless 0 allocs/op.
bench-delta: full-run
	$(GO) test -run '^$$' -bench 'BenchmarkGearChunk|BenchmarkSeqCDCChunk|BenchmarkGearStream|BenchmarkSeqCDCStream' -benchmem ./internal/cdc/
	$(GO) run ./cmd/benchdelta -ref BENCH_replay.json -new /tmp/pod-bench-delta.json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Hot-path microbenchmarks, one layer each: the CDC landmark sweeps
# (BenchmarkSeqMarks / BenchmarkGearMarks), the byte materializer and
# the content hash (BenchmarkBytesHash, three chunk sizes) beside the
# whole split (rotating windows: *Chunk; sequential requests:
# *Stream), fixed-4K split and fingerprinting, the generic map (an
# empty one filled to a million fingerprints, and hits and misses in
# one that large), the Map table, the content model (a block's write,
# read and free on warm pages), the
# iCache's directory (a miss's insert + evict + ghost-evict, a 16-chunk
# request's lookups with and without the warming pass, the read path's
# probe + insert + purge, one Swap Module repartition, one three-stream
# re-apportionment), and the tier's control plane (an owner's hint
# install and a request's locked hint probes on a table past L2, a
# tick's drain of targeted grants,
# one request's seven ads landing on a 200k-entry tier,
# the inbox behind a 1k and a 100k backlog, Close settling eight
# loaded agents on one core and on two). The CDC split and hash, the
# generic map's gets, the directory, the hint/grant/publish benchmarks, the content model
# and the Map table's Set with the reverse index on fail unless they run
# at 0 allocs/op; make check
# runs those (ZERO_ALLOC_BENCH, with the CDC split's in bench-delta) as
# a gate.
ZERO_ALLOC_BENCH = ^(BenchmarkIndexMissInsertEvict|BenchmarkReadPath|BenchmarkRepartition|BenchmarkReapportion|BenchmarkSetReverseIndexed|BenchmarkHintPut|BenchmarkHintGet|BenchmarkAgentDrainGrants|BenchmarkLookupRequest|BenchmarkMapGetHit|BenchmarkMapGetMiss|BenchmarkPublishRequest|BenchmarkStorePath)$$
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/cdc/ ./internal/chunk/ ./internal/probe/ ./internal/maptable/ ./internal/engine/ ./internal/icache/ ./internal/globalfp/
	$(GO) test -run '^$$' -bench BenchmarkSettle8 -cpu 1,2 ./internal/server/

# Full-scale reproduction of every table and figure (a few minutes).
repro:
	$(GO) run ./cmd/podbench

# Subsampled reproduction for a quick look.
repro-fast:
	$(GO) run ./cmd/podbench -scale 0.1

# Short fuzz pass, fifteen targets: the parsers (the FIU reader's
# allocation held to its input), the journal recovery, the CDC landmark
# sweeps (batched bitmap vs the scalar predicate), the carried split
# window (one long-lived Splitter vs a fresh one per request) and
# normalized cut derivation (spacing invariants; a window with lookback
# vs the whole stream), the iCache's directory, both caches and both
# ghosts (vs its slices-and-linear-search model; an input is a thousand
# operations), the Map table's reverse index (vs a forward map and
# per-block counts), the generic map (vs a Go map, with uniform keys and
# with every key in one chain), the tier's batch publish (vs the same
# ads one at a time, and a model), the dense reference volume (vs a Go
# map), the engines' content model (vs a map of residual content and
# liveness) and the extent allocator (vs a block-flag model, the double-free
# panic included). Minimising an input is capped at 20 runs: on the
# stateful drivers a second's minimising of every input that finds new
# coverage took most of the pass. After each target one line gives its
# executions and the rate; a failing target prints its whole log and
# stops the pass.
FUZZ_TARGETS = trace:FuzzReadText trace:FuzzReadBinary trace:FuzzReadFIU trace:FuzzVolume maptable:FuzzLoad \
	cdc:FuzzSeqMarks cdc:FuzzGearMarks cdc:FuzzSplitterCarried cdc:FuzzStreamCuts \
	icache:FuzzDirectoryOps maptable:FuzzReverseIndexOps probe:FuzzMapOps globalfp:FuzzPublish \
	alloc:FuzzAllocOps engine:FuzzStoreOps
fuzz:
	@log=$$(mktemp); trap 'rm -f $$log' EXIT; \
	for t in $(FUZZ_TARGETS); do \
		fn=$${t#*:}; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime 20s -fuzzminimizetime 20x ./internal/$${t%%:*}/ >$$log 2>&1 || { cat $$log; exit 1; }; \
		awk -v fn=$$fn '/^fuzz: elapsed:/ { e = $$3; sub(",", "", e); s = 0; if (e ~ /m/) { split(e, a, "m"); s = 60 * a[1]; e = a[2] } s += e + 0; n = $$5; sub(",", "", n) } \
			END { printf "%-22s %9d execs in %4ds: %7.0f/s\n", fn, n, s, n / (s ? s : 1) }' $$log; \
	done

clean:
	$(GO) clean ./...
