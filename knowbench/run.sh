#!/usr/bin/env bash
# Builds knowbench from the checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash knowbench/run.sh --workload eval-warm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, knowd state
# directories and span dumps. The Go toolchain must be installed; nothing
# is downloaded (the module has no external dependencies).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off

(cd "$root/knowbench" && go build -o "$build/knowbench" .)
exec "$build/knowbench" --out "$build/knowbench-out" "$@"
