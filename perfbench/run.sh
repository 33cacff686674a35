#!/usr/bin/env bash
# Builds the benchmark and cmd/fleetd from the checkout it is run in, then
# runs one measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build artifact, the Go build
# cache and the traces stay under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/mcc" ] || [ ! -d "$root/cmd/fleetd" ]; then
	echo "perfbench: $root holds no repro source tree; run from the repository root" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/fleetd" repro/cmd/fleetd) >&2

exec "$out/perfbench" -fleetd "$out/fleetd" -out "$out" "$@"
