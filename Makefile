# Development targets for the Spinner reproduction.
#
#   make test        — tier-1 gate: go build ./... && go test ./...
#   make test-race   — race-detector pass over the concurrency-bearing
#                      packages (pregel engine + sharded serving layer)
#   make vet         — go vet ./...
#   make lint        — gofmt -l (fails on unformatted files) + go vet
#   make check       — vet + test + test-race + perfbench (what CI enforces
#                      on push/PR)
#   make perfbench   — go vet + go test inside the nested perfbench module,
#                      which the root ./... patterns never reach
#   make bench       — vet + tier-1 + race + BenchmarkSpinnerIteration
#                      (-benchmem, -count=5), recorded into BENCH_pr1.json
#   make bench-serve — same gate but BenchmarkServeLookupUnderChurn,
#                      recorded into BENCH_pr2.json
#   make bench-mutate— same gate but BenchmarkServeMutateThroughput (the
#                      sharded-store write plane: shards=1/2/4 fan-out plus
#                      the incremental-vs-exact cut axis), into BENCH_pr3.json
#   make bench-durable— same gate but BenchmarkServeMutateDurable (journaled
#                      vs in-memory mutation throughput across fsync
#                      policies AND concurrent submitters — the group-commit
#                      axis), into BENCH_pr5.json (PR 4's serial numbers
#                      remain in BENCH_pr4.json)
#   make bench-fairness— same gate but BenchmarkServeFairness (trickle-
#                      tenant mutation latency with and without a flooding
#                      tenant beside it — the weighted-fair admission
#                      plane), into BENCH_pr6.json
#   make bench-replica— same gate but BenchmarkFollowerLookupStaleness
#                      (read-replica lookup latency while the journal
#                      stream replicates leader churn underneath, plus the
#                      worst observed staleness), into BENCH_pr7.json
#   make bench-delta — same gate but BenchmarkCheckpointDelta (checkpoint
#                      bytes per interval on a low-churn history after a
#                      large base: incremental chain vs full re-encode —
#                      bytes_per_op in the JSON is the installed payload
#                      size), into BENCH_pr8.json
#   make bench-metrics— same gate but the observability-plane pair:
#                      BenchmarkHistogramRecord (the lock-free log-linear
#                      histogram's record path) and
#                      BenchmarkServeLookupInstrumented (sampled-vs-off
#                      lookup timing overhead), both into BENCH_pr9.json
#   make bench-watch — same gate but BenchmarkWatchFanout (one publisher
#                      churning deltas into the hub while 256/2k/10k
#                      subscribers drain it: the encode-once shared-frame
#                      path vs the per-subscriber re-encode baseline;
#                      encodes/op and p99 publish→delivery latency ride
#                      along as extra metrics), into BENCH_pr10.json
#   make bench-quick — CI benchmark smoke: every recorded benchmark runs
#                      once (-benchtime=1x -count=1, no JSON write), so
#                      compile/run breakage is caught without timing runs
#   make recovery-smoke — kill -9 a durable spinnerd mid-churn, reopen the
#                      data dir, assert /healthz + lookup consistency
#                      (scripts/recovery_smoke.sh; also a CI job)
#   make overload-smoke — flood a quota-limited spinnerd from one tenant,
#                      assert honest 429s (Retry-After + typed codes) while
#                      other tenants' writes land, then kill -9 under load
#                      and assert recovery (scripts/overload_smoke.sh;
#                      also a CI job)
#   make replication-smoke — leader + follower under churn: bounded
#                      staleness, follower lookups from its own snapshots,
#                      kill -9 the leader, /promote the follower, assert no
#                      acknowledged batch lost and lookups unchanged
#                      (scripts/replication_smoke.sh; also a CI job)
#   make changefeed-smoke — live /v1/watch consumer under churn: delta
#                      frames stream, spinnerctl feed-labels (410-resync
#                      path included) converges to lookup truth, .dckp
#                      chain links land on disk, kill -9 mid-chain and
#                      recovery from base + delta chain
#                      (scripts/changefeed_smoke.sh; also a CI job)
#   make metrics-smoke — scrape /v1/metrics under churn: Prometheus text
#                      parseability, no duplicate series, monotonic
#                      counters across scrapes, stage/HTTP histograms
#                      populated, /stats latency section, pprof side
#                      listener, spinnerctl metrics
#                      (scripts/metrics_smoke.sh; also a CI job)
#
# The serving layer (internal/serve) is a sharded store: N shards each own
# a contiguous vertex range with incremental O(batch) cut tracking, exact-
# reconciled (and boundary-rebalanced) every Config.ReconcileEvery batches.
# Durability (internal/wal) is a staged commit pipeline: each coordinator
# turn journals everything pending as one group append (one write + one
# fsync — group commit), coalesces consecutive add-only batches into single
# shard broadcasts, and checkpoints in the background (the barrier only
# clones state; encode/write/install run off the hot path). serve.Open
# recovers after a crash, falling back past a checkpoint lost mid-write.
# Replication (internal/replica) streams the leader's journal to warm-
# standby followers that replay it through the same apply path and serve
# staleness-bounded reads; /promote fences the old leader by epoch.
# The serving HTTP surface lives in internal/api (every route under /v1,
# typed Go client under internal/api/client, /v1/watch change feed; both
# binary streams share the internal/frame CRC framing); cmd/spinnerctl is the CLI companion built on the client.
# Observability (internal/metrics) is a dependency-free metrics plane:
# lock-free log-linear latency histograms and gauges in a registry,
# pipeline-stage timing seams in serve/wal, sampled lookup timing, and a
# hand-rolled Prometheus text exposition on GET /v1/metrics (plus a
# -pprof-addr side listener on spinnerd).
# CI (.github/workflows/ci.yml) runs lint + check + bench-quick + the
# recovery, overload, replication, changefeed, and metrics smokes on the
# Go version pinned in go.mod, and uploads BENCH_pr4.json through
# BENCH_pr9.json as workflow artifacts.

.PHONY: all check build vet lint test test-race perfbench bench bench-serve bench-mutate bench-durable bench-fairness bench-replica bench-delta bench-metrics bench-watch bench-quick recovery-smoke overload-smoke replication-smoke changefeed-smoke metrics-smoke

all: check

check: vet test test-race perfbench

build:
	go build ./...

vet:
	go vet ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...

test:
	go build ./...
	go test ./...

test-race:
	go test -race ./internal/pregel/ ./internal/serve/ ./internal/wal/ ./internal/replica/ ./internal/metrics/ ./internal/api/

perfbench:
	cd perfbench && go vet ./... && go test ./...

bench:
	./scripts/bench.sh -l current -o BENCH_pr1.json

bench-serve:
	./scripts/bench.sh -l current -b BenchmarkServeLookupUnderChurn -p ./internal/serve -o BENCH_pr2.json

bench-mutate:
	./scripts/bench.sh -l current -b BenchmarkServeMutateThroughput -p ./internal/serve -o BENCH_pr3.json

bench-durable:
	./scripts/bench.sh -l current -b BenchmarkServeMutateDurable -p ./internal/serve -o BENCH_pr5.json

bench-fairness:
	./scripts/bench.sh -l current -b BenchmarkServeFairness -p ./internal/serve -o BENCH_pr6.json

bench-replica:
	./scripts/bench.sh -l current -b BenchmarkFollowerLookupStaleness -p ./internal/replica -o BENCH_pr7.json

bench-delta:
	./scripts/bench.sh -l current -b BenchmarkCheckpointDelta -p ./internal/serve -o BENCH_pr8.json

bench-metrics:
	./scripts/bench.sh -l histogram -b BenchmarkHistogramRecord -p ./internal/metrics -o BENCH_pr9.json
	./scripts/bench.sh -l lookup-overhead -b BenchmarkServeLookupInstrumented -p ./internal/serve -o BENCH_pr9.json

bench-watch:
	./scripts/bench.sh -l current -b BenchmarkWatchFanout -p ./internal/serve -o BENCH_pr10.json

bench-quick:
	./scripts/bench.sh -q -b BenchmarkSpinnerIteration -p .
	./scripts/bench.sh -q -b 'BenchmarkServe(LookupUnderChurn|MutateThroughput|MutateDurable|Fairness|LookupInstrumented)' -p ./internal/serve
	./scripts/bench.sh -q -b 'Benchmark(CheckpointDelta|WatchFanout)' -p ./internal/serve
	./scripts/bench.sh -q -b BenchmarkFollowerLookupStaleness -p ./internal/replica
	./scripts/bench.sh -q -b BenchmarkHistogramRecord -p ./internal/metrics

recovery-smoke:
	./scripts/recovery_smoke.sh

overload-smoke:
	./scripts/overload_smoke.sh

replication-smoke:
	./scripts/replication_smoke.sh

changefeed-smoke:
	./scripts/changefeed_smoke.sh

metrics-smoke:
	./scripts/metrics_smoke.sh
