#!/usr/bin/env bash
# Lists the non-test functions that no binary reaches. Every cmd/ and
# examples/ program is built with coverage over the whole module, a fixed
# set of invocations is run, and the functions still at 0.0% in
# `go tool covdata func` are printed, followed by their count.
#
#   bash scripts/unreached.sh          # from the repository root
#
# The invocation set is fixed so counts compare across changes:
# mlimp-bench -j 2; mlimp-serve three times (default, -open, and a
# fault/deadline/hub-tree run); mlimp-sim; graphgen -dataset ogbl-collab;
# and the five examples. Program output is discarded. A full run takes
# about a minute on two cores.
set -euo pipefail
root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/cov"

for dir in cmd/* examples/*; do
	go build -cover -coverpkg=./... -o "$work/bin/$(basename "$dir")" "./$dir"
done

run() { GOCOVERDIR="$work/cov" "$work/bin/$1" "${@:2}" >/dev/null; }
# graphgen and the examples may write files; run them from the temporary directory.
cd "$work"
run mlimp-bench -j 2
run mlimp-serve
run mlimp-serve -open
run mlimp-serve -fault-seed 3 -deadline-ms 10 -hubs 2 -j 2
run mlimp-sim
run graphgen -dataset ogbl-collab
for ex in "$root"/examples/*/; do
	run "$(basename "$ex")"
done
cd "$root"

go tool covdata func -i="$work/cov" | awk '$NF == "0.0%" { print; n++ } END { print n+0, "unreached functions" }'
