#!/usr/bin/env bash
# Builds the benchmark from source and replaces this shell with it, so there
# is one process and no wrapper left to orphan a child. Everything the build
# and the run leave behind goes under .bench_build/ in the checkout: the Go
# build and module caches, the toolchain's own config files, the binary, temp
# files and traces.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME=$build/config TMPDIR=$build/tmp
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
