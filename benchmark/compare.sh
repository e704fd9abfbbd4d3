#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json: one row per workload x end-to-end
# metric with both medians, the change and ok / worse / unresolved under
# the bounds of BENCHMARK.json; exits non-zero on any "worse".
set -euo pipefail
(($# == 2)) || { echo "usage: benchmark/compare.sh A.json B.json" >&2; exit 2; }
a="$(realpath "$1")" b="$(realpath "$2")"
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --compare "$a" "$b"
