#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it,
# passing every argument through:
#
#   bash omenbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary build
# files, the go command's config and telemetry files, the binary and the
# benchmark's scratch files all stay under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "omenbench: run from the repository root (no go.mod here)" >&2
	exit 1
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off
go build -o "$out/omenbench" ./omenbench
exec "$out/omenbench" "$@"
