#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload.
#
#   bash perfbench/run.sh --workload detect|sharded|live --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. The build cache, the binary and the
# trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CACHE_HOME="$out/home/.cache"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
