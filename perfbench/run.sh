#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload write-heavy-tcp --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's user config (where its
# telemetry counters go), results and span files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
