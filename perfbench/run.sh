#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-txn --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, toolchain state) stays under
# .bench_build/ at the checkout root; nothing is fetched over the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
