#!/usr/bin/env bash
# Behaviour-held evidence for the fold of the per-artifact binaries into
# `scalecheck-cli` (PR 21): runs every program at a size that takes
# seconds and keeps its stdout, exit status and every file it writes, so
# two captures can be compared with `diff -r`.
#
#   cli_fold_capture.sh parent BIN_DIR OUT_DIR   # BIN_DIR/fig3_flaps ...
#   cli_fold_capture.sh change BIN_DIR OUT_DIR   # BIN_DIR/scalecheck-cli fig3_flaps ...
#   diff -r -x '*.err' OUT_PARENT OUT_CHANGE
#
# stderr (sweep progress with its timings, usage text) is kept as *.err
# beside each transcript and is left out of the comparison by `-x`. Host-clock readings are
# masked: the explorer's "in 1.2s" / "# .. 1.2s" and tbl_scale's
# wall_s, ev/s, wall_secs and events_per_sec.
set -u
SIDE=$1
BIN=$(cd "$2" && pwd)
OUT=$3
REPO=$(cd "$(dirname "$0")/../.." && pwd)
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
cd "$OUT"

# sc LABEL PROGRAM ARGS...: PROGRAM is the parent's binary name; on the
# change side it is the command of the same name, except the three the
# fold renamed.
sc() {
  label=$1; prog=$2; shift 2
  if [ "$SIDE" = parent ]; then
    "$BIN/$prog" "$@" >"$label.out" 2>"$label.err"
  else
    case "$prog" in
      explore_run) prog=explore ;;
      diag_run) prog=run ;;
    esac
    "$BIN/scalecheck-cli" "$prog" "$@" >"$label.out" 2>"$label.err"
  fi
  echo $? >"$label.rc"
}
mask_clock() { sed -i -E 's/[0-9]+\.[0-9]+s/_s/g' "$@"; }

sc fig1 fig1_testtime --scales 8,12 --jobs 2
for bug in c3831 c3881 c5456 c6127; do
  sc "fig3_$bug" fig3_flaps --bug "$bug" --scales 8,12 --seed 2 --jobs 2
done
sc baselines tbl_baselines --target 24 --tdf 4 --jobs 2
sc bugstudy tbl_bugstudy
sc colocation tbl_colocation_limit --factors 16,24 --jobs 2
sc complexity tbl_complexity --jobs 2
sc tbl_diverge tbl_diverge --nodes 24 --seed 2 --out tbl_diverge.table --trace-dir traces --jobs 2
sc faults tbl_faults --bug c3881 --scales 8,12 --intensities 0,0.5 --seed 3 --jobs 2
sc finder tbl_finder
sc fix_ablation tbl_fix_ablation --nodes 24 --jobs 2
sc memo_vs_replay tbl_memo_vs_replay --nodes 24 --seed 2 --jobs 2
sc memory tbl_memory --jobs 2
sc statespace tbl_statespace
sc scale tbl_scale --scales 16,24 --modes scpil,colo --seed 2 --jobs 1 \
  --json-out scale.json --table-out scale.table
sed -i -E 's/"(wall_secs|events_per_sec)":[0-9.e+-]+/"\1":_/g' scale.json
# wall_s and ev/s are columns 3 and 4 of the table's data rows.
for f in scale.out scale.table; do
  awk 'NR > 4 { $3 = "_"; $4 = "_" } { print }' "$f" >"$f.masked" && mv "$f.masked" "$f"
done
sc scale_nowrite tbl_scale --scales 16 --modes colo --no-write
awk 'NR > 4 { $3 = "_"; $4 = "_" } { print }' scale_nowrite.out >x && mv x scale_nowrite.out
sc slo tbl_slo --bugs c3831,c5456 --scales 8,12 --users 20000 --jobs 2 \
  --json-out slo.json --table-out slo.table
sc slo_modes tbl_slo --bugs c3831 --scales 8 --users 20000 --modes real,colo --seed 2 --no-write
sc hdfs ext_hdfs --scales 16,24 --seed 2 --jobs 2
sc explore_smoke explore_run --smoke --budget-secs 120
sc explore_replay explore_run --replay "$REPO/tests/witnesses/race_40_1_real.json"
sc explore_hunt explore_run --cells race:40:1:real,baseline:8:1:colo --max-evals 64 \
  --max-swaps 1024 --shuffles 8 --budget-secs 600 --table-out explore.table --witness-out witness.json
mask_clock explore_smoke.out explore_replay.out explore_hunt.out
for mode in real colo pil; do
  sc "run_$mode" diag_run --bug c3831 --nodes 24 --mode "$mode" --seed 2
done
sc run_trace_real diag_run --bug c3831 --nodes 24 --mode real --trace-out trace_real.json
sc run_trace_colo diag_run --bug c3831 --nodes 24 --mode colo --trace-out trace_colo.json
if [ "$SIDE" = parent ]; then
  sc diverge diag_run --diverge trace_real.json trace_colo.json
else
  "$BIN/scalecheck-cli" diverge trace_real.json trace_colo.json >diverge.out 2>diverge.err
  echo $? >diverge.rc
fi

# `scalecheck-cli run|memoize|replay` existed on both sides. `run` is
# now the diag_run program (compare cli_run_*.out with run_*.out by
# hand: a second printer of a subset of the same fields went away);
# memoize/replay keep their behaviour and change printer, so their
# transcripts are expected to differ in layout only and the database
# file must not differ at all.
for mode in real colo pil; do
  "$BIN/scalecheck-cli" run --bug c3831 --nodes 24 --mode "$mode" --seed 2 \
    >"cli_run_$mode.out" 2>"cli_run_$mode.err"
  echo $? >"cli_run_$mode.rc"
done
"$BIN/scalecheck-cli" memoize --bug c3831 --nodes 24 --seed 2 --db memo.json \
  >cli_memoize.out 2>cli_memoize.err
echo $? >cli_memoize.rc
"$BIN/scalecheck-cli" replay --bug c3831 --nodes 24 --seed 2 --db memo.json \
  >cli_replay.out 2>cli_replay.err
echo $? >cli_replay.rc
echo "captured $(ls | wc -l) files in $OUT"
