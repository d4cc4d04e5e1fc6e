#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload sim-kv --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact (the Go build
# cache, the binary) goes under ${CARGO_TARGET_DIR:-.bench_build}, so the
# run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export TMPDIR=$out/tmp
mkdir -p "$TMPDIR"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
