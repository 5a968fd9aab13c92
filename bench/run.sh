#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the Go toolchain and the benchmark write (build cache,
# binaries, temporary campaign roots) stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
