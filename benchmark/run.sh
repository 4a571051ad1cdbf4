#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark offline, then:
#
#   benchmark/run.sh                  gated set: 5 interleaved repetitions of
#                                     every workload, each a fresh process;
#                                     writes benchmark/target/results.json and
#                                     prints every end-to-end metric
#   benchmark/run.sh --traced         one traced run per workload: the
#                                     per-layer replay and its reconciliation
#   benchmark/run.sh --seed N ...     either of the above on another seed
#   benchmark/run.sh compare A.json B.json
#                                     verdict per workload and metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run; the last line of standard
#                                     output is its JSON result
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

case "${1:-}" in
    --workload | compare) exec "$bin" "$@" ;;
esac

traced=0
seed=()
while (($#)); do
    case "$1" in
        --traced) traced=1 ;;
        --seed) seed=(--seed "$2"); shift ;;
        *) echo "usage: benchmark/run.sh [--traced] [--seed N]" >&2; exit 2 ;;
    esac
    shift
done

workloads=(sw_interp service_mix hw_faults fleet)
out=benchmark/target
mkdir -p "$out/runs"
# A failed set must not leave an earlier set's results behind.
rm -f "$out/results.json" "$out"/runs/*.json

if ((traced)); then
    status=0
    for w in "${workloads[@]}"; do
        line=$("$bin" --workload "$w" "${seed[@]}" --trace 1 --out "$out/runs/$w.traced.json" | tail -n 1)
        if [[ $line != '{"correct":true,'* ]]; then
            echo "benchmark: the traced $w run is incorrect" >&2
            status=1
        fi
    done
    exit "$status"
fi

for rep in 1 2 3 4 5; do
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" "${seed[@]}" --out "$out/runs/$w.$rep.json" >/dev/null
    done
done
"$bin" summarize "$out/results.json" "$out"/runs/*.json
