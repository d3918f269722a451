#!/usr/bin/env sh
# Local CI gate: formatting, the maly-audit lint pass, the full test
# suite, and the bench-regression check. Everything runs offline — the
# workspace has no external dependencies.
set -eu

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== maly-audit lint (report archived to target/lint_report.json)"
mkdir -p target
cargo run -q -p xtask -- lint --json target/lint_report.json
# The report must self-describe as clean: a violation in any family
# (the determinism / lock-order / stale-escape families included)
# already failed the command above, but the archived artifact is what
# downstream tooling consumes, so sanity-check it too.
grep -q '"schema": "maly-audit/v2"' target/lint_report.json
grep -q '"clean": true' target/lint_report.json

echo "== cargo test (MALY_PAR_THREADS=1, serial)"
MALY_PAR_THREADS=1 cargo test --workspace -q

echo "== cargo test (default parallelism)"
cargo test --workspace -q

echo "== cargo test (MALY_OBS=1, traced)"
MALY_OBS=1 cargo test --workspace -q

echo "== serve loopback suite (MALY_OBS=1, real sockets)"
MALY_OBS=1 cargo test -q -p maly-serve --test loopback

echo "== end-to-end benchmark smoke tests (perfbench)"
# The benchmark is its own cargo workspace; its smoke tests include the
# fig8_map serial-vs-ambient bit-identity check, the one remaining
# consumer of the contour march outside the unit tests.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== trace-check (serve protocol trace via query --file)"
mkdir -p target
cat > target/ci_requests.jsonl <<'REQ'
{"id": 1, "query": {"type": "table3_row", "id": 1}}
[{"id": 2, "query": {"type": "scenario2_sweep", "x": 2.4, "steps": 11}}, {"id": 3, "query": {"type": "product_mix", "products": 8}}]
[{"id": 4, "query": {"type": "surface_tile", "lambda_min": 0.52, "lambda_max": 0.92, "lambda_steps": 7, "n_tr_min": 8.0e4, "n_tr_max": 6.0e5, "n_tr_steps": 6}}]
[{"id": 5, "query": {"type": "surface_tile", "lambda_min": 0.52, "lambda_max": 0.92, "lambda_steps": 7, "n_tr_min": 8.0e4, "n_tr_max": 6.0e5, "n_tr_steps": 6}}]
{"v": 1, "id": 6, "query": {"type": "chiplet_partition_sweep", "transistors": 2.0e6, "volume": 50000}}
REQ
cargo run -q -p maly-cli -- query --file target/ci_requests.jsonl \
    --trace-out target/trace_serve_ci.ndjson > /dev/null
grep -q '"name":"serve.request"' target/trace_serve_ci.ndjson
grep -q '"name":"model.queries"' target/trace_serve_ci.ndjson
# The cold surface-tile request (id 4) must surface the tile-cache miss
# counter in the exported trace, and its repeat (id 5) the hit counter.
grep -q '"name":"model.tile_misses"' target/trace_serve_ci.ndjson
grep -q '"name":"model.tile_hits"' target/trace_serve_ci.ndjson
# The served chiplet sweep (id 6, sent under an explicit v:1 envelope)
# must surface the partition-search counters in the same trace.
grep -q '"name":"chiplet.partitions"' target/trace_serve_ci.ndjson
grep -q '"name":"chiplet.die_points"' target/trace_serve_ci.ndjson
cargo run -q -p xtask -- trace-check target/trace_serve_ci.ndjson

echo "== chiplet partition goldens (1/2/8 threads, MALY_OBS=1)"
# The reference optimum (4 chiplets + 0 spares at λ = 1.2 µm,
# 64.95 $/system) must be bit-identical whatever the executor width,
# with tracing on.
for T in 1 2 8; do
    MALY_OBS=1 MALY_PAR_THREADS=$T cargo test -q -p maly-chiplet \
        sweep_golden_reference_partition
    MALY_OBS=1 MALY_PAR_THREADS=$T cargo test -q -p maly-model \
        chiplet_sweep_matches_direct_evaluation_and_pins_the_optimum
done
MALY_OBS=1 cargo test -q -p maly-model --test wire_golden

echo "== trace-check (sample CLI --trace-out ndjson)"
mkdir -p target
cargo run -q -p maly-cli -- sweep --transistors 3.1e6 --lambda 0.8 \
    --density 150 --yield 0.7 --c0 700 --x 1.8 \
    --trace-out target/trace_ci.ndjson > /dev/null
cargo run -q -p xtask -- trace-check target/trace_ci.ndjson

echo "== bench regression check (MALY_PAR_THREADS=1, serial)"
MALY_PAR_THREADS=1 cargo bench -p maly-bench --bench sweeps -- \
    --json target/bench_sweeps_ci_t1.json
cargo run -q -p xtask -- bench-check target/bench_sweeps_ci_t1.json

echo "== bench regression check (default parallelism, vs BENCH_sweeps.json)"
cargo bench -p maly-bench --bench sweeps -- --json target/bench_sweeps_ci.json
cargo run -q -p xtask -- bench-check target/bench_sweeps_ci.json

# Both recorded baselines must carry the per-eval counter group the
# bench-check median gate rides on, and declare how parallel the run
# really was (the multi-core speedup gate keys on that header).
grep -q '"group": "per_eval"' target/bench_sweeps_ci_t1.json
grep -q '"group": "per_eval"' target/bench_sweeps_ci.json
grep -q '"available_parallelism"' target/bench_sweeps_ci.json

echo "== serve latency smoke (loadgen vs BENCH_serve.json)"
# Default flags replay the committed baseline's exact seeded workload —
# the work-counter section is compared bit-for-bit, so the smoke must
# send the same request sequence the baseline recorded.
MALY_OBS=1 cargo run -q --release -p maly-loadgen -- \
    --json target/bench_serve_ci.json
cargo run -q -p xtask -- bench-check target/bench_serve_ci.json BENCH_serve.json
# The smoke artifact must declare its parallelism header, carry the
# percentile fields the tail gate rides on, and report the
# deterministic work counters fetched over the stats protocol.
grep -q '"available_parallelism"' target/bench_serve_ci.json
grep -q '"p99_ns"' target/bench_serve_ci.json
grep -q '"name": "serve.request_lines"' target/bench_serve_ci.json

echo "== cli stats record appended to a live-server trace"
# A live server's metrics snapshot, retagged by `silicon-cost stats`,
# must append to an existing trace as one more valid ndjson record.
cargo build -q -p maly-cli
MALY_OBS=1 ./target/debug/maly-cli serve --addr 127.0.0.1:7917 &
SERVE_PID=$!
./target/debug/maly-cli stats --addr 127.0.0.1:7917 \
    >> target/trace_serve_ci.ndjson
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
grep -q '"type":"stats"' target/trace_serve_ci.ndjson
cargo run -q -p xtask -- trace-check target/trace_serve_ci.ndjson

echo "ci.sh: all gates passed"
