#!/usr/bin/env bash
# scripts/paper/run_all.sh — the reproducible experiment workflow: run the
# scripts/paper/experiments.json grid (hot-path micro benchmarks + the
# E1-E10 end-to-end suite, with warmup and repeats) into a timestamped
# run folder:
#
#   paper_runs/<ts>/csv/results.csv        one row per (repeat, benchmark)
#   paper_runs/<ts>/logs/<exp>_rep<k>.log  raw `go test -bench` output
#   paper_runs/<ts>/analysis/baseline.json machine-readable mean/std/CV
#   paper_runs/<ts>/analysis/summary.{csv,md}
#
# Extra arguments pass through to `secreta-bench run`, e.g.:
#
#   bash scripts/paper/run_all.sh -repeats 3 -benchtime 500ms
#   bash scripts/paper/run_all.sh -gate-only -label pr7-candidate
#
# Promote a run's analysis/baseline.json (or a flat BENCH_n.json from
# `secreta-bench parse`) to the tracked baseline, and gate future changes
# with `secreta-bench compare -baseline <file>` (see docs/PERFORMANCE.md).
set -euo pipefail
cd "$(dirname "$0")/../.."
exec go run ./cmd/secreta-bench run -grid scripts/paper/experiments.json "$@"
