#!/usr/bin/env bash
# Regenerates every paper artifact into results/ — the one map from an
# artifact to the `scalecheck-cli` command line that prints it
# (`scalecheck-cli list` describes the commands).
# Usage: see USAGE below.
# Every step runs its command from scratch and prints its wall time; a
# step that exits non-zero is reported at the end and the script exits 1
# (its results/NAME.txt is then a truncated transcript, not an artifact).
# --check LIST  freshness gate: run only the named steps, into a
#               temporary directory, and compare each transcript with
#               the committed results/NAME.txt — or, for the opt-in
#               tbl_diverge, the TBL_diverge.txt it writes with the one
#               at the repo root; prints `diff -u` and exits 1 on a
#               mismatch, and names the steps it skipped. A name that is
#               neither a default step nor tbl_diverge exits 2 before
#               anything is built or run.
# --quick       caps Figure 3 sweeps at N=96 for a fast smoke pass.
# --jobs N      worker threads per experiment sweep (default: all cores).
# --faults LIST comma-separated storm intensities passed through to
#               tbl_faults (default 0,0.3,0.7).
# --diverge     also regenerate TBL_diverge.txt (the §6 divergence
#               attribution at C3831/N=128: three traced runs + two
#               analyzer passes, a few seconds).
# --scale       also regenerate BENCH_scale.json / TBL_scale.txt (the
#               256–4096-node harness-throughput sweep; minutes per
#               big cell, ~14 GB of host memory for the 4096-node
#               ones, and wall_secs is this run's clock).
# --explore     also regenerate TBL_explore.txt (schedule-exploration
#               outcomes: stock presets stay tick-commutative, the
#               race preset yields shrunk single-swap witnesses).
# --slo         also regenerate BENCH_slo.json / TBL_slo.txt (the
#               client-traffic SLO triples: per-bug tail-latency and
#               error-budget verdicts under Real / Colo / SC+PIL; the
#               256-node Colo cells take minutes each).
set -u
cd "$(dirname "$0")/.."
USAGE="usage: $0 [--quick] [--jobs N] [--faults LIST] [--diverge] [--scale] [--explore] [--slo]
       $0 --check NAME[,NAME...] [--jobs N]"
FIG3_SCALES=()
FAULT_INTENSITIES=()
OPT_IN=""
CHECK=""   # non-empty under --check; WANTED then holds the names to run
WANTED=""
OUT=results
JOBS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) FIG3_SCALES=(--scales 32,64,96) ;;
    --jobs)
      [ $# -ge 2 ] || { echo "--jobs needs a value" >&2; exit 2; }
      JOBS=(--jobs "$2"); shift ;;
    --faults)
      [ $# -ge 2 ] || { echo "--faults needs a value" >&2; exit 2; }
      FAULT_INTENSITIES=(--intensities "$2"); shift ;;
    --check)
      [ $# -ge 2 ] || { echo "--check needs a list of step names" >&2; exit 2; }
      CHECK=1; WANTED=",$2,"; shift ;;
    --diverge|--scale|--explore|--slo) OPT_IN="$OPT_IN $1" ;;
    *) echo "unknown flag: $1" >&2; echo "$USAGE" >&2; exit 2 ;;
  esac
  shift
done
# The default steps, one per line: NAME KIND COMMAND ARGS... — the one
# list both the runs below and --check's name validation read. KIND
# `sweep` marks a command that fans cells out over --jobs workers.
default_steps() {
  cat <<EOF
fig3a_c3831 sweep fig3_flaps --bug c3831 ${FIG3_SCALES[*]-}
fig3b_c3881 sweep fig3_flaps --bug c3881 ${FIG3_SCALES[*]-}
fig3c_c5456 sweep fig3_flaps --bug c5456 ${FIG3_SCALES[*]-}
fig1_testtime sweep fig1_testtime
tbl_memo_vs_replay sweep tbl_memo_vs_replay
tbl_colocation_limit sweep tbl_colocation_limit
tbl_complexity sweep tbl_complexity
tbl_bugstudy run tbl_bugstudy
tbl_finder run tbl_finder
tbl_memory sweep tbl_memory
tbl_statespace run tbl_statespace
tbl_fix_ablation sweep tbl_fix_ablation
tbl_baselines sweep tbl_baselines
ext_hdfs sweep ext_hdfs
fig_c6127 sweep fig3_flaps --bug c6127 ${FIG3_SCALES[*]-}
tbl_faults sweep tbl_faults ${FAULT_INTENSITIES[*]-}
EOF
}
# The opt-in steps --check can compare, one per line: NAME ARTIFACT —
# the file the step writes at the repo root (into art/ of the temporary
# directory under --check). The other opt-in artifacts are ROADMAP
# item 12's remainder.
checked_opt_in() {
  cat <<EOF
tbl_diverge TBL_diverge.txt
EOF
}
# The root artifact NAME is compared by, if it is a checked opt-in step.
artifact_of() { checked_opt_in | awk -v n="$1" '$1 == n { print $2 }'; }
ART_DIR=.
if [ -n "$CHECK" ]; then
  [ -z "$OPT_IN" ] || { echo "--check takes step names, not$OPT_IN" >&2; exit 2; }
  known=",$({ default_steps; checked_opt_in; } | cut -d' ' -f1 | paste -sd,),"
  for name in ${WANTED//,/ }; do
    case "$known" in
      *",$name,"*) ;;
      *) echo "--check: no such step: $name" >&2; exit 2 ;;
    esac
  done
  OUT=$(mktemp -d)
  trap 'rm -rf "$OUT"' EXIT
  # Apart from the transcripts, so that no artifact name can clash with
  # a NAME.txt on a case-insensitive file system.
  ART_DIR=$OUT/art
  mkdir "$ART_DIR"
fi
CLI=target/release/scalecheck-cli
cargo build --release || exit 1

FAILED=()
STALE=()
SKIPPED=()
# run NAME COMMAND ARGS...: stdout -> $OUT/NAME.txt, stderr -> $OUT/NAME.log.
# Under --check the fresh copy is compared with the committed one:
# results/NAME.txt, or the root artifact of a checked opt-in step.
run() {
  name=$1; shift
  if [ -n "$CHECK" ]; then
    case "$WANTED" in
      *",$name,"*) ;;
      *) SKIPPED+=("$name"); return ;;
    esac
  fi
  echo "=== $name ==="
  t0=${EPOCHREALTIME/./}
  "$CLI" "$@" >"$OUT/$name.txt" 2>"$OUT/$name.log"
  rc=$?
  secs=$(( (${EPOCHREALTIME/./} - t0) / 100000 ))
  secs="$(( secs / 10 )).$(( secs % 10 ))s"
  if [ $rc -ne 0 ]; then
    echo "    FAILED (exit $rc, $secs): $(tail -n 1 "$OUT/$name.log")" >&2
    FAILED+=("$name")
  elif [ -z "$CHECK" ]; then
    echo "    -> results/$name.txt ($secs)"
  elif artifact=$(artifact_of "$name") && [ -n "$artifact" ]; then
    if diff -u "$artifact" "$ART_DIR/$artifact"; then
      echo "    fresh ($secs)"
    else
      STALE+=("$name")
    fi
  elif diff -u "results/$name.txt" "$OUT/$name.txt"; then
    echo "    fresh ($secs)"
  else
    STALE+=("$name")
  fi
}
# sweep NAME COMMAND ARGS...: a step whose command fans cells out over --jobs workers.
sweep() { run "$@" ${JOBS[@]+"${JOBS[@]}"}; }
opted() { case "$OPT_IN " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

while read -r name kind args; do
  # shellcheck disable=SC2086 # the arguments are words by construction
  "$kind" "$name" $args
done < <(default_steps)
# The opt-in steps (see the header) write tracked artifacts at the repo
# root; results/ only gets their stdout transcript.
if opted --diverge || [ -n "$CHECK" ]; then
  sweep tbl_diverge tbl_diverge --out "$ART_DIR/TBL_diverge.txt"
fi
# One cell at a time whatever --jobs says: the column being measured is
# each cell's wall clock, and two 4096-node cells do not fit the host
# together.
if opted --scale; then
  run tbl_scale tbl_scale --scales 256,512,1024,2048,4096 --jobs 1
fi
if opted --slo; then
  sweep tbl_slo tbl_slo
fi
# Deterministic: the eval cap (not the wall budget, which is sized never
# to bind) cuts every cell, so regeneration reproduces the committed
# table byte-for-byte.
if opted --explore; then
  run tbl_explore explore \
    --cells c3831:64:1:colo,c3881:48:1:colo,c5456:48:1:colo,race:40:1:real,race:40:2:real,race:40:3:real,race:40:4:real \
    --max-evals 64 --max-swaps 1024 --shuffles 8 --budget-secs 1200 \
    --table-out TBL_explore.txt
fi
if [ -n "$CHECK" ]; then
  echo "not checked: ${SKIPPED[*]-} and the opt-in artifacts TBL_scale.txt/BENCH_scale.json, TBL_slo.txt/BENCH_slo.json, TBL_explore.txt"
fi
if [ ${#FAILED[@]} -gt 0 ] || [ ${#STALE[@]} -gt 0 ]; then
  [ ${#FAILED[@]} -eq 0 ] || echo "FAILED steps: ${FAILED[*]}" >&2
  [ ${#STALE[@]} -eq 0 ] || echo "STALE (the committed artifact is not what this tree prints): ${STALE[*]}" >&2
  exit 1
fi
[ -n "$CHECK" ] && echo "checked artifacts are fresh" || echo "all experiments done"
