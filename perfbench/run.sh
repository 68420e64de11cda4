#!/usr/bin/env bash
# Builds the benchmark into .bench_build and runs it from the repository
# root, passing every argument through, e.g.
#   bash perfbench/run.sh --workload yago2-k3-pardis --seed 1 --seconds 20 --trace 0
# All build and run state stays inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOMAXPROCS=2
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
