#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the root of a
# checkout; every build artefact (binary, Go build cache, span dumps) goes
# under .bench_build/ there, and nothing is fetched.
#
#   bash ddbench/run.sh --workload guarded-mix --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result; build output goes
# to standard error.  Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/ddbench" && go build -o "$out/ddbench" .) >&2
exec "$out/ddbench" --spans-dir "$out" "$@"
