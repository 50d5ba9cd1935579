#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build and runs it
# with the given flags. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload gnn-serve --seed 1 --seconds 10 --trace 0
#
# The Go build cache and configuration live under .bench_build too, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/mlimp-bench" .)
exec "$out/mlimp-bench" "$@"
