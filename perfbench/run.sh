#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to perfbench/main.exe (see README.md there):
#   sh perfbench/run.sh --workload n10-history --seed 42 --seconds 20 --trace 0
# The dune cache and compiler temporaries stay inside _build.
set -e
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/.tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./perfbench/main.exe
exec ./_build/default/perfbench/main.exe "$@"
