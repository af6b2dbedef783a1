#!/bin/sh
# ci.sh — the repo's verification gate.
#
# Tier-1 (every PR must keep this green): formatting + module hygiene +
# vet + mcvet + build + full test suite.
# mcvet gate: the repo-specific analyzers (cmd/mcvet) enforce McCuckoo's
# own invariants — zero-allocation hot paths, lock discipline around the
# shard tables, no mixed atomic/plain access, counter/flag writes only
# through sanctioned setters, and deterministic snapshot/repair paths. It
# runs before the test suite because its findings are cheaper to read than
# the test failures they predict.
# Race gate: the concurrency-bearing packages (internal/core's RWMutex
# wrapper and pathwise inserts, internal/shard's partitioned table,
# internal/faultinject which drives both, internal/wire's pipelined
# server/client — TestServerUnderTrafficWithScrape is the
# server-under-traffic smoke, a client fleet hammering a telemetry-scraped
# sharded table — internal/netchaos's fault-injecting conn wrappers, and
# internal/cluster, whose TestClusterKillNodeConvergence runs a 3-node
# replicated cluster through mixed traffic, a mid-run node kill with zero
# failed reads, and a snapshot-restart catch-up, and whose
# TestChaosPartitionWritesSurviveAndSweepHeals is the chaos drill — a
# seeded partition with breaker-degraded writes, then anti-entropy
# convergence) run again under the race detector, which is what actually
# exercises the reader/writer interleavings their tests stage. Test gates
# run with -shuffle=on so inter-test ordering dependencies cannot hide.
# Non-Linux vet: internal/core under GOOS=windows, so the no-op build of
# the huge-page advice keeps compiling.
# perfbench gate: vet and tests of the separate benchmark module, which
# ./... does not include.
# Chaos smoke: the short-mode netchaos drill (seeded partition + heal +
# digest-equality) runs standalone so the fault-injection layer itself is
# exercised — and visibly named — on every run.
# Trace smoke: a traced mctrace replay against a live two-node replicated
# pair, asserting the wire-propagated context yields a cross-node span
# tree — the distributed-tracing tentpole end to end.
# Fuzz smoke: short bounded runs of the snapshot-loader and wire-frame
# fuzzers so format changes that break the rejection paths fail in CI,
# not in a long background fuzz. The wire-frame corpus includes traced
# frames (flag bit 0x40 + 16-byte context prefix) and their rejection
# cases.
# Benchmark smoke: the telemetry and trace benchmarks run once so the
# disabled-path zero-allocation claims and the enabled-path overheads stay
# measurable (the hard allocation assertions live in
# TestDisabledPathZeroAlloc and TestUntracedPathZeroAlloc).
# Perf gate: cmd/mcperf reruns the seeded core and wire suites at reduced
# scale and compares every series against the committed BENCH_core.json /
# BENCH_wire.json baselines (DESIGN.md §14); regressions beyond the
# per-scale noise band fail the build, REFRESH_BASELINE=1 re-records.
set -eu

# say prints the gate banner and, for every gate after the first, the
# wall-clock seconds the previous gate took — so a slow gate is visible
# in the CI log without rerunning anything under time(1).
ci_start="$(date +%s)"
gate_start=""
say() {
	now="$(date +%s)"
	if [ -n "${gate_start}" ]; then
		printf '    (%ss)\n' "$((now - gate_start))"
	fi
	gate_start="${now}"
	printf '==> %s\n' "$*"
}

say "gofmt: checking formatting"
unformatted="$(gofmt -l .)"
if [ -n "${unformatted}" ]; then
	printf 'gofmt: the following files need formatting:\n%s\n' "${unformatted}" >&2
	exit 1
fi

say "go mod tidy: checking module hygiene"
go mod tidy -diff

say "go vet: stock static analysis"
go vet ./...

say "mcvet: repo-specific invariant analysis"
# -json emits one object per finding, suppressed ones included; the gate
# summarises counts and still fails on any unsuppressed finding (mcvet's
# own exit status is preserved by capturing before the pipeline).
mcvet_out="$(mktemp)"
mcvet_rc=0
go run ./cmd/mcvet -json ./... >"${mcvet_out}" || mcvet_rc=$?
mcvet_total="$(wc -l <"${mcvet_out}")"
mcvet_supp="$(grep -c '"suppressed":true' "${mcvet_out}" || true)"
printf 'mcvet: %s findings, %s suppressed, %s unsuppressed\n' \
	"${mcvet_total}" "${mcvet_supp}" "$((mcvet_total - mcvet_supp))"
if [ "${mcvet_rc}" -ne 0 ]; then
	grep -v '"suppressed":true' "${mcvet_out}" >&2 || true
	rm -f "${mcvet_out}"
	exit "${mcvet_rc}"
fi
rm -f "${mcvet_out}"

say "go build: compiling all packages"
go build ./...

say "go vet (GOOS=windows): the non-Linux build of internal/core"
# Huge-page advice is Linux-only (hugepage_linux.go) with a no-op twin for
# every other OS; vetting a non-Linux target keeps the twin compiling.
GOOS=windows go vet ./internal/core/...

say "go test: full suite"
go test -shuffle=on ./...

say "perfbench: vet + tests of the benchmark module"
# perfbench is its own module (replace mccuckoo => ../), so the ./... gates
# above do not reach it. Its deterministic-count and wrong-answer tests
# guard the table paths the benchmark drives, the collision resolver among
# them.
(cd perfbench && go vet ./... && go test ./...)

say "go test -race: concurrency-bearing packages"
# The ./internal/telemetry/... wildcard covers the trace subpackage, whose
# seqlock span ring and concurrent-scrape tests are race-gated here.
go test -race -shuffle=on ./internal/core/... ./internal/shard/... ./internal/faultinject/... ./internal/telemetry/... ./internal/wire/... ./internal/netchaos/... ./internal/cluster/...

say "chaos smoke: seeded partition + heal + digest equality"
go test -race -short -run 'TestChaos|TestNetchaos' ./internal/netchaos/... ./internal/cluster/...

say "trace smoke: traced replay over a two-node cluster"
go test -race -short -count=1 -run 'TestTracedClusterReplaySmoke' ./cmd/mctrace

say "fuzz smoke: snapshot loader"
go test -run='^$' -fuzz=FuzzLoad -fuzztime=5s ./internal/core

say "fuzz smoke: wire frame decoder"
go test -run='^$' -fuzz=FuzzWireFrame -fuzztime=5s ./internal/wire

say "benchmark smoke: telemetry overhead"
go test -run='^$' -bench=Telemetry -benchtime=1x ./internal/telemetry

say "benchmark smoke: trace overhead"
go test -run='^$' -bench=Trace -benchtime=1x ./internal/telemetry/trace

# Perf gate (DESIGN.md §14): the seeded suites rerun at reduced scale and
# every series is compared against the committed baselines with one verdict
# line each; a regression beyond the per-scale noise band — or any
# allocation on a zero-alloc series — fails the build. Baselines are
# refreshed deliberately, never silently: REFRESH_BASELINE=1 ./ci.sh
# re-records BENCH_core.json and BENCH_wire.json at full scale instead of
# checking, and the diff is reviewed like any other code change.
if [ "${REFRESH_BASELINE:-0}" = "1" ]; then
	say "perf gate: refreshing baselines (REFRESH_BASELINE=1)"
	go run ./cmd/mcperf record -suite core -out BENCH_core.json
	go run ./cmd/mcperf record -suite wire -out BENCH_wire.json
	printf 'perf gate: baselines refreshed; review and commit the BENCH diffs\n'
else
	# A failing suite is retried (3 attempts): a genuine regression is
	# deterministic and fails every run, while a transient load spike on a
	# shared CI machine (another tenant, a hot build cache) does not.
	perf_check() {
		for attempt in 1 2 3; do
			if go run ./cmd/mcperf check -suite "$1" -baseline "$2" -quick; then
				return 0
			fi
			if [ "${attempt}" -lt 3 ]; then
				printf 'perf gate: %s check failed (attempt %s/3); retrying to rule out transient load\n' "$1" "${attempt}"
			fi
		done
		return 1
	}
	# Let the machine settle after the heavy test gates before timing.
	sleep 3
	say "perf gate: core suite vs BENCH_core.json"
	perf_check core BENCH_core.json
	say "perf gate: wire suite vs BENCH_wire.json"
	perf_check wire BENCH_wire.json
fi

say "ci.sh: all gates green ($(($(date +%s) - ci_start))s total)"
