#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload enum-heavy --runs 10 --seed 1
#
# Everything the build and the runs write (Go build cache, binary, the
# store's data directories) stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
