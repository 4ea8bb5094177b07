#!/usr/bin/env bash
# Builds cmd/serve and the benchmark program from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload large-job --seed 1 --seconds 30 --trace 0
#   bash _perfbench/run.sh --workload all --runs 10 --seconds 30   # summary
#
# Everything it builds or writes lands under .bench_build/ in the current
# directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/serve and go.mod not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off XDG_CONFIG_HOME="$out/config"

go build -o "$out/serve" ./cmd/serve >&2
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve "$out/serve" -work "$out/work" "$@"
