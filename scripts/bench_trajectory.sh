#!/usr/bin/env bash
# Regenerates BENCH_trajectory.json: the DESIGN.md §10/§15 batched
# tape-tree trajectory engine versus the frozen legacy full-replay loop
# (the byte-identity oracle), with per-path hit rates, tree depth, and
# resident checkpoint bytes per case.
#
# Usage: scripts/bench_trajectory.sh [output.json]
#
# The measurement itself lives in TestTrajectoryBenchReport
# (internal/backend/trajectory_report_test.go), which skips unless
# EDM_BENCH_TRAJECTORY_OUT is set; keeping it in Go lets the report assert
# outcome byte-equality between the two engines in-process and enforce
# the >= 1.5x RunTrajectory/q14 acceptance bar.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_trajectory.json}"
case "$OUT" in
/*) ABS="$OUT" ;;
*) ABS="$(pwd)/$OUT" ;;
esac

EDM_BENCH_TRAJECTORY_OUT="$ABS" go test -run 'TestTrajectoryBenchReport$' -v -count=1 -timeout 30m ./internal/backend |
	grep -v '^=== RUN\|^--- PASS' || true

if [ ! -s "$ABS" ]; then
	echo "bench_trajectory: report was not written" >&2
	exit 1
fi
echo "wrote $OUT"
