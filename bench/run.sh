#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# and the run write (Go build cache, binary, span files) stays under
# .bench_build/ at the root of the checkout, so the benchmark touches
# nothing outside it. Arguments are passed through to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
go build -C "$here" -o "$out/bench" .
exec "$out/bench" -out "$out/out" "$@"
