#!/usr/bin/env bash
# Regenerates every paper artifact into results/.
# Usage: scripts/run_experiments.sh [--quick] [--jobs N] [--faults LIST] [--diverge] [--scale] [--explore] [--slo]
# Every step runs its binary from scratch; a step that exits non-zero is
# reported at the end and the script exits 1 (its results/NAME.txt is
# then a truncated transcript, not an artifact).
# --quick       caps Figure 3 sweeps at N=96 for a fast smoke pass.
# --jobs N      worker threads per experiment sweep (default: all cores).
# --faults LIST comma-separated storm intensities passed through to
#               tbl_faults (default 0,0.3,0.7).
# --diverge     also regenerate TBL_diverge.txt (the §6 divergence
#               attribution at C3831/N=128: three traced runs + two
#               analyzer passes — several extra minutes).
# --scale       also regenerate BENCH_scale.json / TBL_scale.txt (the
#               256–4096-node harness-throughput sweep; minutes per
#               big cell, ~14 GB of host memory for the 4096-node
#               ones, and wall_secs is this run's clock).
# --explore     also regenerate TBL_explore.txt (schedule-exploration
#               outcomes: stock presets stay tick-commutative, the
#               race preset yields shrunk single-swap witnesses).
# --slo         also regenerate BENCH_slo.json / TBL_slo.txt (the
#               client-traffic SLO triples: per-bug tail-latency and
#               error-budget verdicts under Real / Colo / SC+PIL).
set -u
cd "$(dirname "$0")/.."
SCALES="32,64,128,256"
SCALE_SCALES="256,512,1024,2048,4096"
FAULT_INTENSITIES="0,0.3,0.7"
DIVERGE=0
SCALE=0
EXPLORE=0
SLO=0
JOBS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) SCALES="32,64,96" ;;
    --jobs)
      [ $# -ge 2 ] || { echo "--jobs needs a value" >&2; exit 2; }
      JOBS=(--jobs "$2"); shift ;;
    --faults)
      [ $# -ge 2 ] || { echo "--faults needs a value" >&2; exit 2; }
      FAULT_INTENSITIES="$2"; shift ;;
    --diverge) DIVERGE=1 ;;
    --scale) SCALE=1 ;;
    --explore) EXPLORE=1 ;;
    --slo) SLO=1 ;;
    *) echo "unknown flag: $1" >&2; echo "usage: $0 [--quick] [--jobs N] [--faults LIST] [--diverge] [--scale] [--explore] [--slo]" >&2; exit 2 ;;
  esac
  shift
done
BIN=target/release
cargo build --workspace --release || exit 1

FAILED=()
# run NAME CMD...: stdout -> results/NAME.txt, stderr -> results/NAME.log.
run() {
  name=$1; shift
  echo "=== $name ==="
  if "$@" >"results/$name.txt" 2>"results/$name.log"; then
    echo "    -> results/$name.txt"
  else
    echo "    FAILED (exit $?): see results/$name.log" >&2
    FAILED+=("$name")
  fi
}
# sweep NAME CMD...: a step whose binary fans cells out over --jobs workers.
sweep() { run "$@" ${JOBS[@]+"${JOBS[@]}"}; }

sweep fig3a_c3831 "$BIN/fig3_flaps" --bug c3831 --scales "$SCALES"
sweep fig3b_c3881 "$BIN/fig3_flaps" --bug c3881 --scales "$SCALES"
sweep fig3c_c5456 "$BIN/fig3_flaps" --bug c5456 --scales "$SCALES"
sweep fig1_testtime "$BIN/fig1_testtime"
sweep tbl_memo_vs_replay "$BIN/tbl_memo_vs_replay" --nodes 256
sweep tbl_colocation_limit "$BIN/tbl_colocation_limit"
sweep tbl_complexity "$BIN/tbl_complexity"
run tbl_bugstudy "$BIN/tbl_bugstudy"
run tbl_finder "$BIN/tbl_finder"
sweep tbl_memory "$BIN/tbl_memory"
run tbl_statespace "$BIN/tbl_statespace"
sweep tbl_fix_ablation "$BIN/tbl_fix_ablation" --nodes 256
sweep tbl_baselines "$BIN/tbl_baselines" --target 256
sweep ext_hdfs "$BIN/ext_hdfs"
sweep fig_c6127 "$BIN/fig3_flaps" --bug c6127 --scales "$SCALES"
sweep tbl_faults "$BIN/tbl_faults" --bug c3831 --intensities "$FAULT_INTENSITIES"
# Engine microbenchmark trajectory: writes BENCH_engine.json at the
# repo root (tracked) in addition to the results/ transcript.
run bench_engine "$BIN/bench_engine" --out BENCH_engine.json
# §6 divergence attribution: three traced 128-node runs plus the
# analyzer; writes TBL_diverge.txt at the repo root (tracked). Several
# extra minutes, so this is opt-in.
if [ "$DIVERGE" = 1 ]; then
  sweep tbl_diverge "$BIN/tbl_diverge" --nodes 128 --out TBL_diverge.txt
fi
# Harness-throughput scale sweep: writes BENCH_scale.json and
# TBL_scale.txt at the repo root (tracked). The 1024-4096-node cells
# take minutes each and the 4096-node ones ~14 GB of host memory, so
# this is opt-in — and one cell at a time whatever --jobs says: the
# column being measured is each cell's wall clock, and two 4096-node
# cells do not fit the host together.
if [ "$SCALE" = 1 ]; then
  run tbl_scale "$BIN/tbl_scale" --scales "$SCALE_SCALES" --jobs 1
fi
# Schedule-exploration outcomes: writes TBL_explore.txt at the repo
# root (tracked). Deterministic: the eval cap (not the wall budget,
# which is sized never to bind) cuts every cell, so regeneration
# reproduces the committed table byte-for-byte.
# Client-traffic SLO triples: writes BENCH_slo.json and TBL_slo.txt at
# the repo root (tracked). Deterministic virtual-time results; opt-in
# because the 256-node Colo cells re-execute the bug scenarios with the
# coupled datapath attached (minutes each).
if [ "$SLO" = 1 ]; then
  sweep tbl_slo "$BIN/tbl_slo"
fi
if [ "$EXPLORE" = 1 ]; then
  run tbl_explore "$BIN/explore_run" \
    --cells c3831:64:1:colo,c3881:48:1:colo,c5456:48:1:colo,race:40:1:real,race:40:2:real,race:40:3:real,race:40:4:real \
    --max-evals 64 --max-swaps 1024 --shuffles 8 --budget-secs 1200 \
    --table-out TBL_explore.txt
fi
if [ ${#FAILED[@]} -gt 0 ]; then
  echo "FAILED steps: ${FAILED[*]}" >&2
  exit 1
fi
echo "all experiments done"
