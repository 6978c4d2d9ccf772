#!/bin/sh
# The benchmark trajectory: cached vs --no-term-cache pipelines.
#
#   scripts/bench.sh            # full suite -> BENCH_results.json
#   scripts/bench.sh --quick    # two small cases, one repeat (CI smoke)
#
# Runs `repro bench`, writing BENCH_results.json at the repository root
# and a cache-counters snapshot under benchmarks/.metrics/ (the metrics1
# format `repro metrics diff` reads).  Commit both when recording a new
# trajectory point; docs/PERFORMANCE.md explains how to read them.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python -m repro bench "$@" \
    --out BENCH_results.json \
    --snapshot benchmarks/.metrics/bench_cache.json
