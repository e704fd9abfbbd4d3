#!/usr/bin/env bash
# Build the production pj2k CLI and the benchmark offline, then run it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       Full set: every workload end to end, then traced; prints every
#       metric and writes benchmark/out/result.json.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload (the benchmark contract): end to end with
#       --trace 0, per layer with --trace 1. The last line of standard
#       output is the JSON result.
#   benchmark/run.sh --compare A.json B.json
#       Apply the bounds of BENCHMARK.json to two result.json documents.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# No registry is reachable: every external crate is patched to a stub in
# benchmark/shims, and cargo must not try the network.
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-benchmark/target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"
# Keep the toolchain's temporary files inside the tree as well.
export TMPDIR="$target/tmp"
mkdir -p "$TMPDIR"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p pj2k-benchmark -p pj2k-benchmark-layers -p pj2k-serve --bins >&2
bin="$target/release"

args=("$@")
workload="" trace=0 seed=1 seconds="" smoke=()
while (($#)); do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        --compare) exec "$bin/e2e" compare "$2" "$3" ;;
        *) echo "run.sh: unknown argument $1 (see the header of this script)" >&2; exit 2 ;;
    esac
done

if [[ -n "$workload" ]]; then
    if [[ "$trace" = 1 ]]; then
        exec "$bin/layers" "${args[@]}"
    fi
    exec "$bin/e2e" "${args[@]}"
fi

# Full set. Measuring time per run: BENCHMARK.json's run_seconds, or 2 s
# for a smoke pass.
if [[ -z "$seconds" ]]; then
    if ((${#smoke[@]})); then seconds=2; else seconds=20; fi
fi
for w in gray2k-lossy rgb1k-lossless gray3k-smooth batch-mixed; do
    common=(--workload "$w" --seed "$seed" --seconds "$seconds" "${smoke[@]}")
    "$bin/e2e" "${common[@]}" --trace 0 | sed '$d'
    "$bin/layers" "${common[@]}" --trace 1 | sed '$d'
done
BENCH_RUSTC="$(rustc --version)" \
BENCH_GIT_REVISION="$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
    "$bin/e2e" report --seed "$seed" "${smoke[@]}"
