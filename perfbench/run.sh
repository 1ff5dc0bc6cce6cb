#!/usr/bin/env bash
# Builds cmd/serve and the benchmark program from source into .bench_build/
# at the repository root, then runs the benchmark with this script's
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files) stays
# under .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/serve || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/serve and perfbench/)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOMODCACHE=$out/gomod

go build -o "$out/serve" ./cmd/serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -serve "$out/serve" "$@"
