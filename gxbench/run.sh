#!/bin/sh
# run.sh builds the benchmark from source and runs it. Run it from the
# root of a checkout:
#
#   bash gxbench/run.sh --workload table2-8k --seed 1 --seconds 25 --trace 0
#
# Everything it writes (the Go build cache, the binary, records and spans)
# goes under .bench_build in the checkout. A failed build exits non-zero
# without printing a result.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
(cd gxbench && go build -o "$build/bin/gxbench" .) >&2
exec "$build/bin/gxbench" "$@"
