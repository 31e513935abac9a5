#!/usr/bin/env bash
# Build the daemon and the benchmark program from source, then run the
# benchmark with the arguments given, e.g.
#   bash perfbench/run.sh --workload zipf-mix --seed 1 --seconds 25 --trace 0
# Run from the root of a source tree; the last line of standard output
# is the result as one JSON object.
set -euo pipefail
dune=(dune)
command -v dune >/dev/null 2>&1 || dune=(opam exec -- dune)
"${dune[@]}" build --root . ./bin/batlife_cli.exe ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe \
  --batlife ./_build/default/bin/batlife_cli.exe "$@"
