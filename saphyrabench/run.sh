#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Every build and run artifact stays under .bench_build/.
#   bash saphyrabench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	GOMODCACHE="$build/go-path/pkg/mod" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/bin/saphyrabench" .) >&2
cd "$root"
exec "$build/bin/saphyrabench" "$@"
