#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through, for example:
#
#   bash perfbench/run.sh --workload admit-churn --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traced runs' span files all go
# under .bench_build/ at the root, so the run touches nothing else.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd perfbench && go build -trimpath -o "$out/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --commit "$commit" "$@"
