#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there, passing every argument through. The Go
# build cache, module cache and toolchain state are kept under
# .bench_build/ too, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOWORK=off \
	go build -C "$here" -o "$build/gpawbench" .
cd "$root"
exec "$build/gpawbench" "$@"
