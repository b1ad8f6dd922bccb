#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root; every argument is passed through. The binary, the Go
# build cache and the Go tool's own config and telemetry files all stay
# under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload raw-month --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
