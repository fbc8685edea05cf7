#!/usr/bin/env bash
# The full local CI gate: format, lint, build, test.
# Usage: scripts/ci.sh
#
# Note: the repo root is both a [workspace] and a [package], and the
# root package is a workspace member: the --workspace forms below cover
# it and every other member, each suite once.
set -eu
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (workspace, -D warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo build --release (workspace) ==="
cargo build --release --workspace

# One command line: every figure, table and diagnostic is a command of
# `scalecheck-cli`, parsed by `scalecheck_bench::cli::Args` against the
# flags it declares. No second binary, flag parser or hand-written usage
# string may grow back beside it.
echo "=== one binary, one flag parser (gates) ==="
bins=$(cargo metadata --no-deps --offline --format-version 1 | grep -o '"kind":\["bin"\]' | wc -l)
if [ "$bins" -ne 1 ]; then
  echo "error: scalecheck-cli must be the workspace's only binary, found $bins" >&2
  exit 1
fi
if grep -rnE 'fn flag_value|fn parse_flag|fn has_flag|fn int_flag|fn exit_usage|const USAGE' \
  crates src; then
  echo "error: crates/bench/src/cli.rs is the one flag parser; see the matches above" >&2
  exit 1
fi

# One way to get a cell's result: every sweep cell is executed by the
# binary that prints it. The result cache, its flag and its key types
# are gone; nothing may bring them back under another spelling.
echo "=== no result cache (grep gate) ==="
if grep -rnE 'no-cache|use_cache|cache_dir|results/cache|CellSpec|spec_cell' \
  crates src examples tests scripts/run_experiments.sh; then
  echo "error: the sweep result cache is gone; see the matches above" >&2
  exit 1
fi

# One deployment vocabulary: a scenario does not carry its deployment
# (a run is handed where it computes, its `RunMode`, and its PIL handle:
# `run_scenario(cfg, mode, pil)`), `scalecheck::Deployment` is the one
# name for the Real / Colo / SC+PIL columns with the one parser of their
# command-line names, and `RunMode` the one name for where a single
# simulation computes. No second enum, cell runner, config setter or
# name parser may grow back.
echo "=== one deployment vocabulary (grep gate) ==="
if grep -rnE 'enum ExecMode|fn run_cell|fn with_mode|fn parse_modes|fn parse_target|MODE_NAMES|pub mode: RunMode' \
  crates src tests examples; then
  echo "error: scalecheck::Deployment and RunMode are the deployment names; see the matches above" >&2
  exit 1
fi

# One run vocabulary: where a run computes (`sim::RunMode`: Real, Colo)
# and what its PIL-replaced functions do (`memo::Pil`: execute, record,
# replay) are two arguments of one entry point. The memoization run is
# Colo with a recorder, not a `RunMode`; a replay is a `Pil`, not a
# `RunMode` either, so no second entry derives one from the other; a
# run's PIL side is one handle, not a memo db threaded in and out of the
# runner; and the engine's tie order is its one concrete policy, not an
# extension point.
echo "=== one run vocabulary (grep gate) ==="
if grep -rnE 'RunMode::Memoize|Memoize \{|PilReplay|fn run_colocated|run_scenario_with_db|run_hdfs_with_db|fn with_db|fn into_db|trait TieOrder' \
  crates src tests examples; then
  echo "error: RunMode and memo::Pil are the run vocabulary; see the matches above" >&2
  exit 1
fi

# One node record: a node's per-stage state (queue, task parked for the
# ring lock) is indexed by `StageKind`, whose discriminant is also the
# obs track and the CPU-accounting slot; the ring lock is node state
# naming its holder stage, and whether a stage holds it is read off the
# node, never carried in an event payload; a node's life, a fault
# crash's start included, is one `Lifecycle`, and it leaves `Up` one way
# (`runner::stop_node`, whatever the cause), which cancels its timers, so
# no timer carries an epoch to be checked when it fires; a scenario's
# context-switch cost is one `ContextSwitch`. No per-stage field pair,
# stage/token decoder, write-only view-change record, context-switch
# bool, separate lock table, lock bit, crash-time map, timer epoch, outage
# kept open past a departure or second stop path may grow back.
echo "=== one node record (grep gate) ==="
if grep -rnE 'parked_gossip|parked_calc|gossip_stage|calc_stage|fn lock_token|fn stage_of|ViewChanges|free_ctx_switch|global_event_queue|LockTable|LockId|HolderToken|fault_crash_at|holds_lock|release_lock_after|timer_epoch|Departed \{ down_since|fn crash_node|fn cancel_node_timers' \
  crates src tests examples; then
  echo "error: per-stage node state is indexed by StageKind; see the matches above" >&2
  exit 1
fi

# One event shape: every engine event is a handler registered once plus
# a u64 payload stored inline, so the tie probe names each fired event
# by its handler and payload. No boxed one-shot closure, closure-taking
# schedule call, hand-kept tag channel or message counter beside the
# runner's in-flight slot store may grow back.
echo "=== one event shape (grep gate) ==="
if grep -rnE 'EventFn|Payload::Once|fn tag_sched|sched_tags|fn last_seq|\binflight\b|(\.|fn +)schedule_(at|after)[(<]' \
  crates src tests examples; then
  echo "error: engine events are registered handlers with a u64 payload; see the matches above" >&2
  exit 1
fi

# One namenode: hdfslike's master keeps liveness, not a block map. Every
# report repeats the blocks its datanode registered with, so the master
# bills a report's ops from the closed form of the literal pass. The
# block map, both literal passes and the block ids live only in
# tests/model/hdfs.rs, the oracle of
# proptests::block_report_bill_matches_the_literal_master.
echo "=== one namenode, billed reports (grep gate) ==="
if grep -rnE 'block_map|process_block_report|MasterOps|fn preload|BlockId' \
  crates/hdfslike/src; then
  echo "error: the namenode bills block reports, it keeps no block map; see the matches above" >&2
  exit 1
fi

# One serialisation path and one deserialisation path: the serde shim's
# traits stream (`serialize(&self, &mut String)`, `deserialize(&mut
# Reader)`). No `Value`-returning `serialize` or `&Value`-taking
# `deserialize` may grow back beside them, derived or by hand.
echo "=== no Value-tree serde path (grep gate) ==="
if grep -rnE 'fn serialize\(&self\) *-> *[A-Za-z_:]*Value|fn deserialize\([a-z_]+: *&[A-Za-z_:]*Value\)|from_value' \
  shims crates --include='*.rs'; then
  echo "error: the serde shim streams; see the matches above" >&2
  exit 1
fi

# Serialize only what is written, deserialize only what is read back (the
# memo db snapshot, the trace in a Chrome file, a schedule witness: the
# files below); the four crates that write nothing do not use serde.
echo "=== serde surface (grep gate) ==="
derive_re() { echo "(#\[derive\(|^\s*)([A-Za-z]+, *)*$1(,|\)\])"; }
read_back='^crates/(memo/src/db|obs/src/(tracer|hist)|ring/src/token|sim/src/(time|tie)|explore/src/(witness|verdict)|cluster/src/calc|core/src/scalecheck)\.rs:'
if grep -rnE "$(derive_re Deserialize)" crates --include='*.rs' | grep -vE "$read_back"; then
  echo "error: only what the program reads back derives Deserialize; see the matches above" >&2
  exit 1
fi
if grep -nE '^serde' crates/{bugstudy,gossip,net,pilfinder}/Cargo.toml; then
  echo "error: bugstudy, gossip, net and pilfinder write nothing; see the matches above" >&2
  exit 1
fi
for trait in Deserialize Serialize; do
  echo "$trait derives: $(grep -rhE "$(derive_re "$trait")" crates --include='*.rs' | wc -l)"
done

# Every member's unit and integration suites, each run once. The root
# package is a member, and its integration suites are the behaviour
# contracts: paper shapes at pinned seeds (bug_regressions), fault
# injection + byte-identical same-seed reports (failure_injection), the
# property suites (proptests: wheel vs heap scheduler, steady-state
# timers allocation-free, dense gossip/phi tables vs the tree-map oracles
# in tests/model, phi running sum, token-map and calc-digest caches,
# link FIFO clocks vs a sparse model), whole-run report digests
# (run_pins — every iteration order in gossip/cluster that a refactor
# must preserve, and hdfslike's runs on both report versions, whose
# reports are billed from a closed form that proptests checks against
# the literal block map in tests/model/hdfs.rs), and the traffic
# datapath differential
# (traffic_slo). The other members: obs (tracer, histograms, exporters,
# analyzer), traffic, explore (tie order, frontier, shrinker, witness),
# cluster's schedule tests, and bench's command-line parser, sweep and
# obs-integration contracts (every flag a command reads is declared,
# byte-identical traces across --jobs, Chrome-export well-formedness).
echo "=== cargo test (workspace) ==="
cargo test --workspace -q

# The benchmark package (BENCHMARK.json) is a workspace of its own that
# compiles against these crates' public API and is run by the merge
# gate: build, test and smoke-run it here, so a deletion that breaks it
# fails locally instead of there.
echo "=== benchmark package (tests + --smoke against this workspace) ==="
cargo test --offline --manifest-path benchmarks/Cargo.toml
cargo run --release --offline --manifest-path benchmarks/Cargo.toml -- --smoke

# The §6 divergence narrative needs three 128-node traced runs; far
# too slow under the dev profile, so the test is #[ignore]d there and
# run here against the release build.
echo "=== §6 divergence narrative (c3831@128, release) ==="
cargo test --release -q -p scalecheck-bench --test obs_integration -- --ignored

# Trace-pipeline smoke at the size the paper argues about: a real
# 128-node run exports a Chrome trace (65.7 MB Real, 63.2 MB Colo, ~1 s
# a run; and prints the end-of-run obs summary), and the analyzer loads
# a pair of them end to end through the CLI surface — inside a 512 MiB
# address-space limit. Read through a document tree the pair needed
# 1.34 GiB (and aborts here); the streaming reader peaks at 84.7 MiB,
# one file buffer plus the two traces, so giving the DOM back fails
# locally. The export streams too, a 64 KiB chunk at a time: each run
# fits in 33 MiB (Real) and 37 MiB (Colo) of address space and runs
# here under 64 MiB, where rendering the whole file into one String
# first needs 105 MiB and aborts.
echo "=== trace export + analyzer smoke (c3831@128, run under ulimit -v 64 MiB, diverge under 512 MiB) ==="
CLI=target/release/scalecheck-cli
(
  ulimit -v 65536
  "$CLI" run --bug c3831 --nodes 128 --mode real --trace-out target/ci_trace_real.json
  "$CLI" run --bug c3831 --nodes 128 --mode colo --trace-out target/ci_trace_colo.json
)
(
  ulimit -v 524288
  "$CLI" diverge target/ci_trace_real.json target/ci_trace_colo.json
)

# Freshness: the committed tables must be what this tree prints. The
# steps that regenerate in seconds are re-run and compared byte for
# byte, and so are all three Figure 3 panels (fig3a, fig3b, fig3c:
# ~24 s, ~21 s and ~18 s on a 2-vCPU host — the (Real, Colo, SC+PIL)
# artifacts), tbl_baselines (~18 s: the §4 mini-cluster, extrapolation
# and time-dilation baselines), ext_hdfs (under 1 s since its reports
# are billed, not run: the second system's run loop, also guarded by
# the eight HdfsReport pins in tests/run_pins.rs), tbl_colocation_limit
# (~38 s: the only artifact of the global-event-queue context-switch
# setting and of single-process memory admission), tbl_fix_ablation
# (~29 s: each fix at the scale that exposed its bug, plus the harness
# ablations) and tbl_memo_vs_replay (~16 s: memoization cost against
# replay). So are three opt-in steps' artifacts at the repo root:
# TBL_diverge.txt (tbl_diverge, ~1.5 s: the §6 attribution from three
# traced 128-node runs), TBL_explore.txt (tbl_explore, ~19 s:
# schedule-exploration outcomes, cut by the eval cap, so deterministic)
# and TBL_slo.txt with BENCH_slo.json (tbl_slo, ~12 s: the client-traffic
# SLO triples and verdicts). The script prints each step's wall time and
# names what it did not check (fig_c6127, minutes on its own, and the
# opt-in TBL_scale artifacts, whose clock columns are each run's own —
# ROADMAP item 12), so a green gate vouches only for what it ran.
echo "=== committed results are fresh (run_experiments.sh --check) ==="
scripts/run_experiments.sh --check \
  tbl_bugstudy,tbl_finder,tbl_statespace,tbl_complexity,tbl_memory,fig1_testtime,tbl_faults,fig3a_c3831,fig3b_c3881,fig3c_c5456,tbl_baselines,ext_hdfs,tbl_colocation_limit,tbl_fix_ablation,tbl_memo_vs_replay,tbl_diverge,tbl_explore,tbl_slo

# Scale smoke: the harness must still *reach* the scales the paper
# argues for. One 1024-node SC+PIL cell must run, its row must satisfy
# the bench_scale/v1 schema, and — it is the very cell of the committed
# BENCH_scale.json 1024/SC+PIL row — its events_fired, total_flaps and
# messages_delivered must equal that row's: a gate on what repeats.
# Speed is not gated here: the cell takes 31-32 s on a quiet host and
# took 43-67 s on unchanged code on a busy one, so the 90 s budget only
# catches a hang; perf is the benchmark's job (BENCHMARK.json, ROADMAP
# item 1). Full trajectory numbers come from scripts/run_experiments.sh
# --scale (see EXPERIMENTS.md, "Scaling beyond the paper").
echo "=== scale smoke (tbl_scale --smoke, 1024-node SC+PIL) ==="
"$CLI" tbl_scale --smoke --budget-secs 90

# SLO smoke: the coupled datapath must flow a million open-loop users
# through the c3831 128-node Real and Colo cells, produce schema-valid
# bench_slo/v2 rows, show the Colo tail *diverging* from Real (the
# user-visible C3831 signal the coupling exists for), and reproduce
# its request-log digest byte-for-byte on a rerun — all inside the
# wall budget. Full triples and verdicts come from
# scripts/run_experiments.sh --slo (see EXPERIMENTS.md, "Client
# traffic & SLOs").
echo "=== slo smoke (tbl_slo --smoke, c3831@128 Real vs Colo, 1M users) ==="
"$CLI" tbl_slo --smoke --budget-secs 240

# The paper-shape SLO regression needs three 128-node runs (Real,
# Colo, and the full SC+PIL pipeline); too slow under the dev profile,
# so it is #[ignore]d there and run here against the release build.
echo "=== paper-shape SLO regression (c3831@128 triple, release) ==="
cargo test --release -q --test traffic_slo -- --ignored

# The harness's own scalability bug: filling every ring view with
# per-pair checked inserts made the cluster build cubic in N (~12 s at
# 2048 nodes before the first event). A 2048-node cell with a 1 s
# horizon, mostly build, must finish inside 4 s (~0.9 s now).
echo "=== cluster build stays sub-cubic (2048-node cell, release) ==="
cargo test --release -q -p scalecheck-cluster --test build_scale -- --ignored

# The offending function's host cost: a calculator bills the ops of its
# historical loops (V1's full-ring walk per range and node) as virtual
# time, it does not run them. Three leaves on a 2048-node ring bill V1
# 25.7 G ops; each calculator must answer inside 100 ms (under 1 ms
# now; the literal V1 loops take over an hour).
echo "=== pending-range host cost stays sub-cubic (2048-node ring, release) ==="
cargo test --release -q -p scalecheck-ring --test host_cost -- --ignored

# The cost around it: while a join or leave is pending, every applied
# gossip that touches the moving node recalculates on an unchanged ring
# view, and the run reads one bit of the answer. Each call used to clone
# the view and re-encode and re-hash all of it for its memo digest; the
# calculation now borrows the view, and the digest resumes the hash
# state the ring caches after its canonical bytes. 10,000 calls on one
# unchanged 2048-node ring must finish inside 100 ms (~3 ms now, ~0.9 s
# re-hashing), and the runner must not clone a ring view again.
echo "=== pending-range invocation host cost (2048-node ring, release; grep gate) ==="
cargo test --release -q -p scalecheck-cluster --test calc_host_cost -- --ignored
if grep -n 'ring\.clone()' crates/cluster/src/runner.rs; then
  echo "error: the calculation borrows the node's ring view; see the matches above" >&2
  exit 1
fi

# One ring representation: a ring view is a table of slots addressed by
# node id. The ordered-map table it replaced lives only in
# tests/model/ring.rs, the oracle of
# proptests::dense_ring_table_matches_the_tree_model.
echo "=== one ring representation (grep gate) ==="
if grep -n 'BTreeMap' crates/ring/src/table.rs; then
  echo "error: crates/ring/src/table.rs must not use a BTreeMap; see the matches above" >&2
  exit 1
fi

# One gossip width: clocks are u32 (validate bounds them below 2^31) and
# SYN/ACK/ACK2 bodies are bits and bytes (peers in bits, a byte a clock
# against one base word, escapes as words). The u64, Vec-bodied exchange
# they replaced lives only in tests/model/gossip.rs, the oracle of the
# gossip body differentials.
echo "=== one gossip width (grep gate) ==="
if grep -rnE '(generation|version|app_version|max_version|version_clock) *: *u64|Vec<\(Peer, *Delta' \
  crates/gossip/src; then
  echo "error: gossip clocks are u32 and bodies are not lists of (peer, delta) records; see the matches above" >&2
  exit 1
fi

# Host memory in a flap storm: 160 nodes on 16 cores queue gossip
# messages at starved receivers, and that queue sets the peak of the
# verdict benchmark. Each body is allocated at exactly its length:
# peers in bits and a byte a clock (an offset from one base word per
# body, escapes as words). Grown by doubling the ACKs peaked at 46.7 MiB
# here, with exact but wide bodies (24-byte digests, 40-byte deltas) at
# 34.2 MiB, with 12-byte digests and 16-byte delta records at ~20 MiB,
# with a clock word an entry at ~16.1 MiB, and with a byte a clock but
# the φ arrival log kept in every run at ~11.5 MiB. The c3831@160
# one-decommission Colo leg must peak under 11.3 MiB of VmHWM
# (~8.3 MiB now).
echo "=== flap-storm host memory (c3831@160 Colo leg, release) ==="
cargo test --release -q -p scalecheck-cluster --test colo_peak_rss -- --ignored

# Host memory in steady state: the tbl_scale 512-node Colo cell, where
# per-peer state is what grows. A detector keeps the arrival epochs the
# windows are gaps between (as per-peer sample rows it peaked at
# 169 MiB here); a ring view is one slot per node id sharing each node's
# token list, and the build sizes the per-peer tables once (as tree views
# and doubling tables it peaked at ~74 MiB); views that agree share one
# table (one table per node peaked at ~47 MiB, and ~44 MiB when only the
# build copied a table per node); a run keeps the arrival log only if a
# window fills, which this cell never does (~37 MiB with the log). The
# cell must peak under 22.4 MiB of VmHWM (~19.4 MiB now).
echo "=== steady-state host memory (baseline(512) Colo cell, release) ==="
cargo test --release -q -p scalecheck-cluster --test steady_peak_rss -- --ignored

# Schedule exploration: the tie-order plumbing must stay inert on the
# identity path (pinned smoke cells, zero verdict flips), and the
# committed witness — a single targeted swap that flips the race
# preset's verdict — must replay bit-identically from scratch.
echo "=== schedule-explorer smoke (explore --smoke) ==="
"$CLI" explore --smoke --budget-secs 120

echo "=== committed schedule witness replay ==="
"$CLI" explore --replay tests/witnesses/race_40_1_real.json

echo "ci green"
