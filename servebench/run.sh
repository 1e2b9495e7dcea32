#!/usr/bin/env bash
# Builds servebench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload chat --seed 1 --seconds 15 --trace 0
#   bash servebench/run.sh steady -k 5 --seed 101
#
# Everything the build writes (the Go build cache, the binary) stays under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
