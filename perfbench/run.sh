#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload offline|serve|stream --seed N --seconds S --trace 0|1
# Run it from the repository root. Everything it writes (Go build cache,
# binary, spans, results, count ledger) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
  exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/perfbench"

# Keep the toolchain's caches, config and telemetry inside the checkout,
# and never fetch a toolchain or module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --spec "$root/BENCHMARK.json" --out "$out/perfbench" "$@"
