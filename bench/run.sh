#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload mix -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. The build cache, temporary files, the go
# command's own config and telemetry, and the binary stay in .bench_build/
# under the current directory, so a run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/perfcloud-bench" .)
exec "$out/perfcloud-bench" "$@"
