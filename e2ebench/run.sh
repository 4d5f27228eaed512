#!/usr/bin/env bash
# Builds the end-to-end benchmark and the binaries it drives (smbserver,
# shmserve) from this checkout, then runs it with the given arguments.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload a-tcp-wide --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/bin/" . shmcaffe/cmd/smbserver shmcaffe/cmd/shmserve) >&2
exec "$out/bin/e2ebench" "$@"
