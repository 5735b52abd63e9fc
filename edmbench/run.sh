#!/usr/bin/env bash
# Builds edmbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   bash edmbench/run.sh --workload paper-jobs --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the traced runs' spans all go under
# .bench_build in the working directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/edmbench" .)
exec "$out/edmbench" "$@"
