#!/usr/bin/env bash
# The full local CI gate: format, lint, build, test.
# Usage: scripts/ci.sh
#
# Note: the repo root is both a [workspace] and a [package], so plain
# `cargo test` covers only the root crate; the --workspace forms below
# cover every member. Both must stay green.
set -eu
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (workspace, -D warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo build --release (workspace) ==="
cargo build --release --workspace

echo "=== cargo test (root package) ==="
cargo test -q

echo "=== cargo test (workspace) ==="
cargo test --workspace -q

# The benchmark package (BENCHMARK.json) is a workspace of its own that
# compiles against these crates' public API and is run by the merge
# gate: build, test and smoke-run it here, so a deletion that breaks it
# fails locally instead of there.
echo "=== benchmark package (tests + --smoke against this workspace) ==="
cargo test --offline --manifest-path benchmarks/Cargo.toml
cargo run --release --offline --manifest-path benchmarks/Cargo.toml -- --smoke

# The fault/regression suites gate the determinism and paper-shape
# contracts; run them by name so a failure is attributable at a glance
# even though the broad passes above include them.
echo "=== scenario regressions (paper shapes at pinned seeds) ==="
cargo test -q --test bug_regressions

echo "=== fault injection + determinism ==="
cargo test -q --test failure_injection

echo "=== property suites (incl. fault-layer invariants) ==="
cargo test -q --test proptests

echo "=== sweep cache keyed on fault plans ==="
cargo test -q -p scalecheck-bench --test sweep_integration

# Observability: the tracer/metrics/export unit suites, then the
# end-to-end contracts (trace determinism across --jobs, Chrome-export
# well-formedness) by name so a failure is attributable at a glance.
echo "=== obs unit suites (tracer, histograms, exporters, analyzer) ==="
cargo test -q -p scalecheck-obs

echo "=== obs integration (determinism across jobs, chrome export) ==="
cargo test -q -p scalecheck-bench --test obs_integration

# The §6 divergence narrative needs three 128-node traced runs; far
# too slow under the dev profile, so the test is #[ignore]d there and
# run here against the release build.
echo "=== §6 divergence narrative (c3831@128, release) ==="
cargo test --release -q -p scalecheck-bench --test obs_integration -- --ignored

# Trace-pipeline smoke: a real run exports a Chrome trace and the
# analyzer loads a pair of them end to end through the CLI surface.
echo "=== diag_run trace export + analyzer smoke ==="
target/release/diag_run --bug c3831 --nodes 12 --mode real --no-cache \
  --trace-out target/ci_trace_real.json
target/release/diag_run --bug c3831 --nodes 12 --mode colo --no-cache \
  --trace-out target/ci_trace_colo.json
target/release/diag_run --diverge target/ci_trace_real.json target/ci_trace_colo.json

# Perf smoke: the engine microbenchmark must run, emit well-formed
# bench_engine/v2 JSON with nonzero throughput on every scenario,
# keep disabled-tracing overhead under its budget (<2%, 0 allocs per
# emission), and the wheel/heap differential property suites must
# hold. The smoke sizes keep this under a minute; trajectory numbers
# come from the full run in scripts/run_experiments.sh (see
# EXPERIMENTS.md).
echo "=== engine perf smoke (bench_engine --smoke) ==="
target/release/bench_engine --smoke --out target/BENCH_engine_smoke.json
target/release/bench_engine --verify target/BENCH_engine_smoke.json

echo "=== wheel/heap differential properties ==="
cargo test -q --test proptests wheel_and_heap_schedulers_are_indistinguishable
cargo test -q --test proptests steady_state_periodic_timers_run_allocation_free

# The gossip view and the failure detector are tables indexed by node
# id; the tree-map forms they replaced live on as oracles in
# tests/model. Whole-run report digests captured before the move pin
# every iteration order the tables must preserve.
echo "=== dense gossip/phi tables vs tree-map models, whole-run pins ==="
cargo test -q --test proptests dense_failure_detector_matches_the_tree_model
cargo test -q --test proptests phi_sweep_prefilter_never_hides_a_conviction
cargo test -q --test proptests dense_endpoint_map_matches_the_tree_model
cargo test -q --test run_pins

# Scale smoke: the harness must stay fast enough to reach the scales
# the paper argues for. One 1024-node SC+PIL cell runs cache-free and
# must finish inside the wall budget (sized for a single-CPU worker:
# ~75 s with index-addressed gossip/phi tables, 306 s with the per-peer
# tree maps they replaced — a slide back fails here), and its row must
# satisfy the bench_scale/v1 schema. Full trajectory
# numbers come from scripts/run_experiments.sh --scale (see
# EXPERIMENTS.md, "Scaling beyond the paper").
echo "=== scale smoke (tbl_scale --smoke, 1024-node SC+PIL) ==="
target/release/tbl_scale --smoke --budget-secs 240

# SLO smoke: the coupled datapath must flow a million open-loop users
# through the c3831 128-node Real and Colo cells, produce schema-valid
# bench_slo/v2 rows, show the Colo tail *diverging* from Real (the
# user-visible C3831 signal the coupling exists for), and reproduce
# its request-log digest byte-for-byte on a rerun — all inside the
# wall budget. Full triples and verdicts come from
# scripts/run_experiments.sh --slo (see EXPERIMENTS.md, "Client
# traffic & SLOs").
echo "=== slo smoke (tbl_slo --smoke, c3831@128 Real vs Colo, 1M users) ==="
target/release/tbl_slo --smoke --budget-secs 240

echo "=== traffic datapath suites (arrivals, consistency, SLO, runner differential) ==="
cargo test -q -p scalecheck-traffic
cargo test -q --test traffic_slo

# The paper-shape SLO regression needs three 128-node runs (Real,
# Colo, and the full SC+PIL pipeline); too slow under the dev profile,
# so it is #[ignore]d there and run here against the release build.
echo "=== paper-shape SLO regression (c3831@128 triple, release) ==="
cargo test --release -q --test traffic_slo -- --ignored

# Schedule exploration: the tie-order plumbing must stay inert on the
# identity path (pinned smoke cells, zero verdict flips), and the
# committed witness — a single targeted swap that flips the race
# preset's verdict — must replay bit-identically from scratch.
echo "=== schedule-explorer smoke (explore_run --smoke) ==="
target/release/explore_run --smoke --budget-secs 120

echo "=== committed schedule witness replay ==="
target/release/explore_run --replay tests/witnesses/race_40_1_real.json

echo "=== schedule-exploration suites (tie order, frontier, shrinker, witness) ==="
cargo test -q -p scalecheck-explore
cargo test -q -p scalecheck-cluster --test schedule

echo "=== optimized-vs-naive differential properties ==="
cargo test -q --test proptests phi_running_sum_matches_naive_resum
cargo test -q --test proptests token_map_cache_is_transparent
cargo test -q --test proptests link_fifo_clocks_match_a_sparse_model

echo "ci green"
