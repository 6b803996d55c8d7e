#!/usr/bin/env bash
# Builds and runs the benchmark from a checkout of the repository.
# Everything it writes (go build cache, binaries, daemon data
# directories, trace files) stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rdtserved" ]; then
	echo "bench: $root is not a checkout of the rdt module" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
