#!/usr/bin/env bash
# Builds blockbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash blockbench/run.sh --workload paper_stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C blockbench -buildvcs=false -o "$out/bin/blockbench" .

# The commit stamped on each result, when the checkout is a git work tree.
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	if ! git -C "$root" diff --quiet HEAD -- 2>/dev/null; then
		commit="$commit+dirty"
	fi
fi
export BLOCKBENCH_COMMIT="$commit"
exec "$out/bin/blockbench" "$@"
