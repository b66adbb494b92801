#!/usr/bin/env bash
# Builds relmbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash relmbench/run.sh --workload serve-open --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build/ in the checkout, so the benchmark reads and writes nothing
# outside it (apart from reading the Go toolchain).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/gotmp"

(cd "$root/relmbench" && go build -o "$build/bin/relmbench" .)
exec "$build/bin/relmbench" --workdir "$build/relmbench" "$@"
