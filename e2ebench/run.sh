#!/bin/sh
# Builds the end-to-end benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   sh e2ebench/run.sh --workload anon-miss --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout; the build never touches the network.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
