#!/usr/bin/env bash
# Builds nectar-perf from the checkout it is run in and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/nectar-perf/bench.sh                  # every workload, seed 1, 20 s each
#   bash cmd/nectar-perf/bench.sh -workload rtt -seed 2 -trace 1
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ at the root, so the build writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/cmd/nectar-perf" && go build -buildvcs=false -o "$out/nectar-perf" .)
exec "$out/nectar-perf" "$@"
