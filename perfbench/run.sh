#!/usr/bin/env bash
# Builds edserved and the benchmark from source inside the checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Everything the go tool and the benchmark write stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/edserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a full repository checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp" "$build/work"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bin/edserved" ./cmd/edserved
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -edserved "$build/bin/edserved" -workdir "$build/work" "$@"
