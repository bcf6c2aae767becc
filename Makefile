# Tier-1 verification (ROADMAP.md): build + full test suite.
.PHONY: all build test check race loc golden mutants bench bench-suite bench-compare bench-scale bench-tax fuzz-smoke

all: check

build:
	go build ./...

test:
	go test ./...

# race runs the detector over the packages with concurrent code paths:
# the experiment run pool, the slot pool it draws workers from, the
# cgroups whose caps are read lock-free while the control plane sets
# them, the control plane whose instruments are updated from ticking
# goroutines, the observability package (whose health timers are bumped
# from ticking goroutines while HTTP handlers snapshot them), the
# daemon that serves those handlers, and the data plane (executors,
# frameworks, speculators) that parallel experiment repetitions drive.
race:
	go test -race ./internal/cluster/... ./internal/sim/... ./internal/cgroup/... \
		./internal/experiments/... ./internal/core/... ./internal/obs/... \
		./internal/exec/... ./internal/mapreduce/... ./internal/spark/... \
		./internal/straggler/... ./cmd/perfcloudd/...

# loc prints the size figures ROADMAP.md tracks: non-test Go lines
# outside bench/, the number of process-wide `func SetDefault` switches
# left in internal/, the number of package-level variables in
# non-test internal/ code — each name of a `var x` line or a `var (...)`
# block counts, `var _ =` interface assertions do not — and the number of
# entries in the unreached-surface allowlist (testdata/unreached.allow).
loc:
	@printf 'non-test Go LOC outside bench/: '
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.*' | xargs cat | wc -l
	@printf 'func SetDefault in internal/: '
	@grep -rn 'func SetDefault' internal/ | wc -l
	@printf 'package-level vars in internal/: '
	@find internal -name '*.go' -not -name '*_test.go' | xargs awk ' \
		function names(decl, f, v) { gsub(/, +/, ",", decl); split(decl, f, /[ =]/); return split(f[1], v, ",") } \
		/^var \(/ { blk = 1; next } \
		blk && /^\)/ { blk = 0; next } \
		blk && /^\t[A-Za-z]/ { n += names(substr($$0, 2)); next } \
		/^var [A-Za-z]/ { n += names(substr($$0, 5)) } \
		END { print n + 0 }'
	@printf 'unreached-surface allowlist entries: '
	@grep -c '^[^#[:space:]]' testdata/unreached.allow

# golden checks the committed output digests from the command line, the
# same bytes the TestGoldenOutputs tests of cmd/perfcloudd, cmd/psim and
# cmd/perfbench and TestObservedFig11Golden check in process under
# go test: perfcloudd's Perfetto JSON and audit log, psim's stdout,
# Perfetto JSON and alert JSONL (seeds 42 and 7), the stdout and traces
# of an observed -quick Fig 11 run, perfbench -fig all's stdout at seed
# 42, and the stdout and all 56 traces of the full observed quick suite
# (perfbench -fig all -quick -scorecard -alerts -fastpaths -tracedir; the
# -fastpaths counters and the timing line go to stderr). Only this target
# checks the stdout of each example; planet_scale's two wall-clock
# figures ("built in …s", "…s wall") are masked to X first. Each command
# runs in its own directory under .golden/. Every group runs even when an
# earlier one mismatches; the target lists the failed groups at the end
# and exits non-zero if there are any.
GOLDEN = .golden
EXAMPLES = antagonist_id interference_detection large_scale migration quickstart planet_scale
golden:
	rm -rf $(GOLDEN)
	mkdir -p $(GOLDEN)/perfcloudd $(GOLDEN)/psim $(GOLDEN)/experiments $(GOLDEN)/perfbench $(GOLDEN)/suite $(GOLDEN)/examples
	go build -o $(GOLDEN)/bin/ ./cmd/perfcloudd ./cmd/psim ./cmd/perfbench $(addprefix ./examples/,$(EXAMPLES))
	@failed=; \
	echo "== perfcloudd"; \
	(cd $(GOLDEN)/perfcloudd && for seed in 42 7; do \
		../bin/perfcloudd -seed $$seed -alerts -trace seed$$seed.trace.json -events seed$$seed.events.jsonl > /dev/null || exit 1; \
	done && sha256sum -c ../../cmd/perfcloudd/testdata/golden.sha256) || failed="$$failed perfcloudd"; \
	echo "== psim"; \
	(cd $(GOLDEN)/psim && for seed in 42 7; do \
		../bin/psim -seed $$seed -scorecard -phase-report -trace seed$$seed.trace.json \
			-alerts-jsonl seed$$seed.alerts.jsonl > seed$$seed.stdout || exit 1; \
	done && sha256sum -c ../../cmd/psim/testdata/golden.sha256) || failed="$$failed psim"; \
	echo "== observed Fig 11"; \
	(cd $(GOLDEN)/experiments && ../bin/perfbench -fig 11 -quick -scorecard -alerts -tracedir traces > fig11.stdout \
		&& sha256sum -c ../../internal/experiments/testdata/observed.sha256) || failed="$$failed observed-fig11"; \
	echo "== -fig all"; \
	(cd $(GOLDEN)/perfbench && ../bin/perfbench -fig all -seed 42 > figall.stdout \
		&& sha256sum -c ../../cmd/perfbench/testdata/golden.sha256) || failed="$$failed fig-all"; \
	echo "== quick suite"; \
	(cd $(GOLDEN)/suite \
		&& ../bin/perfbench -fig all -quick -scorecard -alerts -fastpaths -tracedir traces > suite.stdout 2> /dev/null \
		&& sha256sum -c --quiet ../../cmd/perfbench/testdata/suite.sha256) || failed="$$failed suite"; \
	echo "== examples"; \
	(cd $(GOLDEN)/examples && for ex in $(EXAMPLES); do \
		../bin/$$ex > $$ex.raw || exit 1; \
		sed -E 's/built in [0-9.]+s/built in Xs/; s/[0-9.]+s wall/Xs wall/' $$ex.raw > $$ex.stdout; \
	done && sha256sum -c ../../examples/testdata/golden.sha256) || failed="$$failed examples"; \
	if [ -n "$$failed" ]; then echo "golden: mismatched groups:$$failed"; exit 1; fi; \
	echo "golden: all groups match"

# mutants applies each row of the mutant table in mutants_test.go — a
# deliberate fault in a guard the fast paths or the stage machine rely
# on — through go test -overlay, which never writes the tree, and
# requires the tests of every package the row names to fail.
mutants:
	go test -tags mutants -run '^TestMutantsKilled$$' -count=1 -v .

# check is the full local gate: vet, build, tests, and the race tier.
# Benchmarks are tracked separately — run `make bench` to measure the
# monitoring/detection hot loops; they are not part of this gate.
check:
	go vet ./...
	go build ./...
	go test ./...
	$(MAKE) race

# bench measures the hot loops of the simulation and control plane —
# Monitor.Sample, Correlator identification, quiescent-cluster ticks,
# busy-cluster (active) ticks, mixed-cluster strides, fleet-scale
# cloud.Manager.Boot and one Fig 12 testbed's set-up and teardown — and
# merges the
# parsed results (iteration count, ns/op, B/op, allocs/op) into
# BENCH_hotloop.json via cmd/benchjson. The raw `go test` output is
# echoed so regressions are visible without opening the file.
BENCH_PATTERN = MonitorSample|CorrelatorIdentify|QuiescentCluster|ActiveServerTick|StrideAdvance|Boot|TestbedLifecycle
BENCH_PKGS = ./internal/core ./internal/cluster ./internal/cloud ./internal/experiments
bench:
	go test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem \
		$(BENCH_PKGS) | go run ./cmd/benchjson -o BENCH_hotloop.json

# bench-compare measures the hot-loop benchmarks on BASE (a git revision,
# default HEAD) and on the working tree in one session, so host drift
# hits both sides alike: BASE is checked out into a gitignored worktree
# (.bench-base/), then BASE and the working tree run alternately for
# BENCH_ROUNDS rounds, and each round prints the working tree's
# per-benchmark deltas against that round's BASE results. It ends with
# one line per benchmark: each side's median ns/op over the rounds, its
# min–max, and how many rounds the working tree won, marked "overlap" when
# the two min–max ranges overlap (host noise alone could explain the gap).
# On a shared 2-vCPU host three rounds read ±20% noise as effects, hence
# eight by default. The committed BENCH_hotloop.json is neither read nor
# written.
#
#	make bench-compare BASE=HEAD~1
BASE ?= HEAD
BENCH_BASE = .bench-base
BENCH_ROUNDS = 8
bench-compare:
	rm -rf $(BENCH_BASE) && git worktree prune
	git worktree add --detach $(BENCH_BASE) $(BASE)
	go build -o $(BENCH_BASE)/.bin/benchjson ./cmd/benchjson
	for r in $$(seq $(BENCH_ROUNDS)); do \
		echo "== round $$r: BASE $(BASE)"; \
		(cd $(BENCH_BASE) && go test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS)) \
			| $(BENCH_BASE)/.bin/benchjson -o $(BENCH_BASE)/base$$r.json > /dev/null || exit 1; \
		echo "== round $$r: working tree against BASE"; \
		go test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
			| $(BENCH_BASE)/.bin/benchjson -baseline $(BENCH_BASE)/base$$r.json -o $(BENCH_BASE)/work$$r.json || exit 1; \
	done
	$(BENCH_BASE)/.bin/benchjson -rounds '$(BENCH_BASE)/base%d.json,$(BENCH_BASE)/work%d.json'
	git worktree remove --force $(BENCH_BASE)

# bench-scale measures the sharded tick path at fleet scale — the same
# 8 busy servers inside 1k- and 10k-server clusters — merges the results
# into BENCH_scale.json, and gates on the scaling ratio: ticking the
# 10x-larger fleet may cost at most 2x per tick (the O(active + shards)
# contract; a flat tick would be ~10x). The ratio compares two results
# from the same run, so the gate holds on any machine.
bench-scale:
	go test -run='^$$' -bench=ShardScale -benchmem \
		./internal/cluster | go run ./cmd/benchjson -o BENCH_scale.json
	go run ./cmd/benchjson -injson BENCH_scale.json \
		-ratio 'servers=10240,servers=1024' -max-ratio 2

# bench-suite times the full Fig 3-12 experiment suite end to end —
# per-figure wall clock via perfbench -suite, plus the single-pass
# BenchmarkFigSuite measurement — and merges both into BENCH_suite.json.
bench-suite:
	go run ./cmd/perfbench -suite > /dev/null
	go test -run='^$$' -bench=FigSuite -benchtime=1x \
		./internal/experiments | go run ./cmd/benchjson -o BENCH_suite.json

# bench-tax measures the observer tax in one run: perfcloudd's default
# scenario bare (BenchmarkRun/observers=off) and with every observer
# main attaches for -events -trace -alerts -http (no listener), ending
# as main does with the audit log flushed and the Perfetto trace
# exported (BenchmarkRun/observers=on). It gates on the on/off ratio;
# both sides share the run, so the gate holds on any machine.
bench-tax:
	go test -run='^$$' -bench='^BenchmarkRun$$' -benchtime=500x -benchmem ./cmd/perfcloudd \
		| tee /dev/stderr | go run ./cmd/benchjson -ratio 'observers=on,observers=off' -max-ratio 1.85

# fuzz-smoke runs each fuzz target briefly beyond its committed seed
# corpus (testdata/fuzz/), which plain `go test` already replays.
fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzJSONLEncoding$$' -fuzztime=10s ./internal/obs
	go test -run='^$$' -fuzz='^FuzzFloatFormat$$' -fuzztime=10s ./internal/trace
	go test -run='^$$' -fuzz='^FuzzPickReplicas$$' -fuzztime=10s ./internal/dfs
	go test -run='^$$' -fuzz='^FuzzVMRegistry$$' -fuzztime=10s ./internal/cluster
	go test -run='^$$' -fuzz='^FuzzClusterMatchesReference$$' -fuzztime=10s ./internal/cluster
	go test -run='^$$' -fuzz='^FuzzNormalMatchesMathRand$$' -fuzztime=10s ./internal/sim
