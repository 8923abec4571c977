#!/bin/sh
# Runs a command and checks its exit code and, when the pattern is not
# empty, that its output has a line matching the grep -E pattern.
#
#   expect_exit.sh <code> <pattern> <command> [args...]
set -u
want=$1
pattern=$2
shift 2

output=$("$@" 2>&1)
code=$?
printf '%s\n' "$output"
if [ "$code" -ne "$want" ]; then
  echo "exit code $code, expected $want"
  exit 1
fi
if [ -n "$pattern" ] && ! printf '%s\n' "$output" | grep -Eq "$pattern"; then
  echo "no output line matches: $pattern"
  exit 1
fi
exit 0
