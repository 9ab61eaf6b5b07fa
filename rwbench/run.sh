#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument is passed
# through to main.exe (see main.ml).  Run from the root of the repository:
#
#   bash rwbench/run.sh --workload htap --seed 1 --seconds 10 --trace 0
#
# The build goes to .bench_build with the dune cache disabled, so nothing
# outside the checkout is read or written.  It uses the default (dev)
# profile, as the tests do: in release builds the garbage collector's
# allocation counts varied by about 0.2% from run to run at one seed,
# while dev builds repeat them exactly.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./rwbench/main.exe >&2
exec ./.bench_build/default/rwbench/main.exe "$@"
