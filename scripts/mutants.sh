#!/usr/bin/env bash
# Proves the gates bite: applies each planted mutant in tests/mutants/ to a
# fresh copy of the committed tree, runs the command its manifest row
# names, and reports `caught` when the command fails with the row's text
# in its output, `survived` otherwise.
#
#   scripts/mutants.sh            every mutant in tests/mutants/manifest.tsv
#   scripts/mutants.sh NAME ...   the named ones
#
# Each mutant is a rebuild, so ci.sh does not run this; a re-anchor, and
# any change that deletes or rewrites a test, does. Exits 1 if a mutant
# survived or a patch no longer applies, 2 on an unknown name.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
manifest="$root/tests/mutants/manifest.tsv"
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
# One target directory for every copy: each mutant rebuilds only what
# its patch touches.
export CARGO_TARGET_DIR="$work/target"

rows=$(grep -v '^#' "$manifest")
if [ $# -gt 0 ]; then
  for name in "$@"; do
    if ! printf '%s\n' "$rows" | cut -f1 | grep -qx "$name"; then
      echo "unknown mutant: $name" >&2
      exit 2
    fi
  done
fi

status=0
while IFS=$'\t' read -r name command expect; do
  [ -n "$name" ] || continue
  if [ $# -gt 0 ] && ! printf '%s\n' "$@" | grep -qx "$name"; then
    continue
  fi
  copy="$work/$name"
  mkdir -p "$copy"
  git -C "$root" archive HEAD | tar -x -C "$copy"
  if ! (cd "$copy" && git apply "$root/tests/mutants/$name.patch"); then
    echo "$name: patch does not apply"
    status=1
    continue
  fi
  out=$(cd "$copy" && bash -c "$command" 2>&1)
  code=$?
  if [ $code -ne 0 ] && grep -qF -- "$expect" <<<"$out"; then
    echo "$name: caught"
  else
    echo "$name: SURVIVED (exit $code)"
    status=1
  fi
  rm -rf "$copy"
done <<<"$rows"
exit $status
