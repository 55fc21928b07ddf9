#!/usr/bin/env bash
# Builds fleetbench from the sources of the checkout it sits in and runs
# it with the given flags, e.g.
#
#   bash fleetbench/run.sh --workload causal-sat --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ at the checkout root. Without the repository's sources
# next to it the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

commit=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi

(cd "$root/fleetbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/fleetbench" .) >&2
exec "$build/fleetbench" --workdir "$build" "$@"
