#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# inside the checkout (bench/ is a module of its own that replaces `repro`
# with the checkout root) and runs it with the caller's arguments. Build
# cache and binary stay under bench/.build so nothing outside the checkout
# is written. go build is a cache hit, a fraction of a second, after the
# first run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/.build/gocache" GOMODCACHE="$here/.build/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$here/.build/spibench" .
exec "$here/.build/spibench" "$@"
