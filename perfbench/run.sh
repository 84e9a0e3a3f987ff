#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact and Go cache lands under .bench_build in the current
# directory, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

mkdir -p "$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

# The revision is recorded only when the root itself is a git work tree;
# an exported checkout reports "unknown" rather than an enclosing repo's.
rev=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	rev=$(git -C "$root" rev-parse HEAD)
fi

(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -rev "$rev" -out "$build/trace" "$@"
