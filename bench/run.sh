#!/usr/bin/env bash
# Driver entry point: build the benchmark inside the checkout, then run it.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local
export GOPROXY=off
(cd "$here" && go build -o "$build/dodbench2" .)
cd "$root"
exec "$build/dodbench2" "$@"
