#!/usr/bin/env bash
# Builds the layered benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload solve-halo-4k --seed 1 --seconds 55 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span dumps) stays under .bench_build/ in the
# working directory. The build fails, and the script exits non-zero without
# a result line, when the rahtm module sources are not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gomodcache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
	GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
