#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload assemble-d2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# at the repository root (Go build cache, the binary, traces, scratch
# FASTQ files), so the benchmark reads and writes only inside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" --out "$out" "$@"
