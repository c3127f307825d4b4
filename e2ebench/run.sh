#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload routed-point --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache and tool configuration, the binary,
# the run's model store and observation logs (removed at exit) and
# trace files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(cd "$root/e2ebench" && GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
