#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 10 --trace 0
set -euo pipefail
dune build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
