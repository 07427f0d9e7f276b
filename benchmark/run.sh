#!/usr/bin/env bash
# Builds the benchmark from source in the checkout holding this script and
# runs it; every argument goes to run.exe.  --root stops dune from adopting
# an enclosing project, and with its shared cache off the build writes
# nothing outside the checkout.
cd "$(dirname "$0")/.." || exit 1
exec dune exec --root . --cache=disabled --display=quiet ./benchmark/run.exe -- "$@"
