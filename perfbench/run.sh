#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload mix --seed 1 --seconds 12 --trace 0
#	bash perfbench/run.sh -compare parent.txt change.txt
#
# For -compare, run the parent and the change by turns, one run each, and
# append each run's output to its side's file.
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory (Go build cache, binary, node data directories).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -data "$out/data" "$@"
