#!/usr/bin/env bash
# Build the synthesizer and the benchmark from source, then run the
# benchmark. Run from the root of a checkout:
#   bash perfbench/run.sh --workload n4-level-iii --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --self-test
set -euo pipefail
if [[ ! -f dune-project || ! -f bin/synth.ml || ! -d lib/serve ]]; then
  echo "perfbench: run from the root of a sortsynth checkout (dune-project, bin/, lib/ missing)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/synth.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
