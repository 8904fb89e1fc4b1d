#!/usr/bin/env bash
# Build the daemon and the benchmark driver from source, then run the
# driver with the given arguments:
#   bash perfbench/run.sh --workload serve-fetch --seed 1 --seconds 30 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./bin/ccomp.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
