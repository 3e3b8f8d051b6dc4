#!/usr/bin/env bash
# Simulator-speed benchmark: build bench_sim_speed and run it from the
# repo root, leaving BENCH_sim_speed.json there. The harness itself
# asserts TICK/EVENT engine parity on every point before timing.
#
#   scripts/bench.sh          # build + run
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target bench_sim_speed
./build/bench/bench_sim_speed
