#!/bin/sh
# Reruns bfs_runner with one golden case's recorded arguments and
# byte-compares the report it writes with the committed one.
#
#   check_report.sh <bfs_runner> <golden-dir> <case> <out-dir>
#
# The arguments come from <golden-dir>/cases.txt; the fresh report goes to
# <out-dir>/<case>.json. On a mismatch the script prints the head of the
# diff and the command that regenerates the committed file.
set -eu
runner=$1
dir=$2
name=$3
out=$4

line=$(grep "^$name " "$dir/cases.txt") || {
  echo "no case '$name' in $dir/cases.txt"
  exit 1
}
set -f
# shellcheck disable=SC2086  # the recorded arguments split on spaces
set -- ${line#"$name "}
set +f

mkdir -p "$out"
if ! "$runner" "$@" --json-out="$out/$name.json" >"$out/$name.log" 2>&1; then
  cat "$out/$name.log"
  echo "bfs_runner failed for case '$name'"
  exit 1
fi
if cmp -s "$dir/$name.json" "$out/$name.json"; then
  exit 0
fi
echo "report for case '$name' differs from $dir/$name.json:"
diff -u "$dir/$name.json" "$out/$name.json" | head -n 60 || true
printf 'if the change is intended, regenerate it with:\n  bfs_runner'
printf " '%s'" "$@"
printf " --json-out=tests/golden/%s.json\n" "$name"
exit 1
