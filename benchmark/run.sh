#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (binary and Go
# build cache under .bench_build/, nothing outside the checkout is
# written) and runs it from the checkout root with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOENV=off
(cd "$here" && go build -o "$build/locus-benchmark" .)
cd "$root"
exec "$build/locus-benchmark" "$@"
