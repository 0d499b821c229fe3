#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload montecarlo --seed 3 --seconds 30 --trace 0
#
# The Go build cache lives under .bench_build/ too, so nothing is written
# outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
