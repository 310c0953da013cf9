#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sweep|serve|chaos --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Build products and the Go build
# cache stay inside the checkout, under .bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's environment and telemetry files
# inside the checkout as well.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/wsnq-perfbench" .) >&2
exec "$out/wsnq-perfbench" --out "$out" "$@"
