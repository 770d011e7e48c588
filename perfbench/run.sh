#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload rank-alias --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# file a run writes stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root: no darklight module in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
