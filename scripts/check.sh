#!/bin/sh
# check.sh — the full local gate, identical to CI.
# Usage: scripts/check.sh [short]
#   short: skip the -race pass (quick pre-commit loop)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

if [ "${1:-}" = "short" ]; then
    echo "== go test (short)"
    go test -short ./...
    # Even the quick loop races the HTTP endpoints (/metrics, /events,
    # /api/*) against a live replay — including the fault-injection hammer,
    # which shares the admission controller between the submit gate and the
    # replay goroutine. Both hammers are small and fast.
    echo "== go test -race (endpoint + fault + pooled-event + contention + slo hammers)"
    go test -race -run Hammer ./internal/server ./internal/obs ./internal/contention ./internal/slo
else
    echo "== go test"
    go test ./...
    echo "== go test -race"
    go test -race ./...
fi

echo "== root scheduler benchmarks, one iteration each (panic smoke test)"
go test -run '^$' -bench 'Scheduler' -benchtime 1x .

echo "== benchmark smoke test (live vs sim.Run digests, exactly-once completions)"
(cd perfbench && go test .)

echo "== asetslint"
go run ./cmd/asetslint ./...

echo "== fuzz the event-stream reader (10s)"
go test -run '^$' -fuzz '^FuzzReadJSONL$' -fuzztime 10s ./internal/obs

echo "== obs overhead benchmark"
go run ./cmd/asetsbench -obs-bench BENCH_obs.json -n 1000
cat BENCH_obs.json

echo "== span + sketch overhead benchmark"
go run ./cmd/asetsbench -span-bench BENCH_span.json -n 1000
cat BENCH_span.json

echo "== observability scale benchmark (budget gate)"
go run ./cmd/asetsbench -scale-bench BENCH_scale.json
cat BENCH_scale.json

echo "== overload shedding benchmark"
go run ./cmd/asetsbench -fault-bench BENCH_fault.json -n 300 -seeds 2
cat BENCH_fault.json

echo "== parallel runner benchmark (bit-exactness gate)"
go run ./cmd/asetsbench -parallel-bench BENCH_parallel.json -n 300 -seeds 2
cat BENCH_parallel.json

echo "== cluster failover benchmark (failover + determinism gate)"
go run ./cmd/asetsbench -cluster-bench BENCH_cluster.json -n 300
cat BENCH_cluster.json

echo "== contention benchmark (conflict-aware wins + determinism gate)"
go run ./cmd/asetsbench -contention-bench BENCH_contention.json -n 400 -seeds 3
cat BENCH_contention.json

echo "== slo benchmark (alert lead time + determinism + alloc gate)"
go run ./cmd/asetsbench -slo-bench BENCH_slo.json -n 300 -seeds 2
cat BENCH_slo.json

echo "all checks passed"
