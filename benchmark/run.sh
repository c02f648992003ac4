#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (Go build cache included, so nothing is written
# outside it) and runs it from the checkout root with the caller's flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOWORK=off
(cd "$here" && go build -o "$build/react-benchmark" .)
cd "$root"
exec "$build/react-benchmark" "$@"
