#!/usr/bin/env bash
# Builds the server under test and the benchmark from this checkout, then
# runs one benchmark run:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything it builds or caches
# goes under .bench_build/ there. The last line of standard output is the
# run's JSON result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/patchitpy ]]; then
  echo "run.sh: run from the root of a checkout of the repository" >&2
  exit 1
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOFLAGS= GOENV=off

# The server is the shipped binary, built from the tree under test.
go build -o "$build/patchitpy" ./cmd/patchitpy >&2
(cd perfbench && go build -o "$build/bench" ./cmd/bench) >&2
# The in-process half calls the program's packages; build it only when
# the run needs it, so a timed run of a serve workload can drive a server
# built from an older tree.
workload="" trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) workload="${args[i+1]:-}" ;;
    --trace) trace="${args[i+1]:-0}" ;;
  esac
done
if [[ "$workload" == batch-eval || "$trace" == 1 ]]; then
  (cd perfbench && go build -o "$build/inproc" ./cmd/inproc) >&2
fi
exec "$build/bench" -dir perfbench -build "$build" "$@"
