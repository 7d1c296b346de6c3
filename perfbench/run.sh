#!/usr/bin/env bash
# Builds `structura` and the perfbench program from the checkout that holds
# this script, then runs perfbench with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload write-churn --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/structura ] || [ ! -d internal/server ]; then
	echo "perfbench: $root is not a structura checkout (no go.mod or cmd/structura)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/structura" ./cmd/structura
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/structura" -work "$out/work" "$@"
