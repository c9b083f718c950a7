#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload read-seq --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build or the run
# writes stays under the root: the Go build and module caches, the
# toolchain's config directory and temporary files go to .bench_build/,
# span dumps and CPU profiles to .bench_out/. A checkout without the
# repository's Go module fails to build, and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false"
export GOPROXY=off
export GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
