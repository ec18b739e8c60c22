#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload, for example:
#
#   bash perfbench/run.sh --workload noisy_soc --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, store
# directories, trace files) stays under .bench_build at the checkout root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:${GOROOT:-/usr/local/go}/bin"
fi

(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		HOME="$build/home" XDG_CONFIG_HOME="$build/home/config" XDG_CACHE_HOME="$build/home/cache" \
		GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$build/perfbench" .
) >&2

exec "$build/perfbench" -out "$build" "$@"
