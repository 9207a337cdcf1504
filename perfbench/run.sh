#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# toolchain's own state and the traced run's span and layer files all
# go under .bench_build/, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
