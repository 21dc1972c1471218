#!/usr/bin/env bash
# Build the service benchmark from source and run one workload:
#   bash servbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  The last line of standard output is
# the result as one JSON object; build output goes to standard error.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib/service ] || [ ! -f servbench/dune ]; then
  echo "servbench: run from the root of a spacebounds checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build from source here.
dune build --root . --cache=disabled ./servbench/main.exe >&2
exec ./_build/default/servbench/main.exe "$@"
