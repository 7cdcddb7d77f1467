#!/usr/bin/env bash
# Builds the benchmark driver into the checkout's .bench_build/ and runs it.
# Everything the build writes (Go build cache included) stays inside the
# checkout. Run from the repository root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/datacron-serve ] || [ ! -f bench/go.mod ]; then
  echo "bench/run.sh: run from the root of a datacron checkout (the benchmark builds the daemon from source)" >&2
  exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
