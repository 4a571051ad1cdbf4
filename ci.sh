#!/usr/bin/env bash
# Workspace CI gate: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== non-test line count (printed, not gated) =="
# The library's non-test code lines, crate by crate, by one fixed rule
# (the script's header); the ROADMAP's line-count target is read from it.
scripts/count_lines.sh

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== cargo test --release -p ppc405-sim =="
# The cache's differential test against its array-of-structs oracle
# draws a small operation budget in debug builds and a larger one in
# release; this step runs the larger one.
cargo test -q --release -p ppc405-sim

echo "== cargo test --release --test address_map =="
# The boundary walk of every address-map window: a debug build panics on
# an overflowing address computation, a release build wraps it, so a
# path that only stays in bounds by panicking would pass in debug alone.
cargo test -q --release --test address_map

echo "== cargo test --release -p vp2-bitstream =="
# The streaming applier's differential fuzz against the parse-then-apply
# oracle likewise runs its larger budget in release.
cargo test -q --release -p vp2-bitstream

echo "== benchmark package =="
# benchmark/ is a workspace of its own, so the builds above never touch
# it: build and test it here so a Service/Cluster/Federation API change
# cannot break it silently.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
# A renamed, deleted or private name must not leave a dangling
# intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== example smoke runs =="
# Each example asserts its own results against the reference
# implementations and exits non-zero on a mismatch.
cargo run --release --example quickstart > /dev/null
cargo run --release --example hashing_service > /dev/null
cargo run --release --example image_pipeline > /dev/null
cargo run --release --example service_traffic > /dev/null
cargo run --release --example fault_tolerance > /dev/null
cargo run --release --example cluster_traffic > /dev/null
cargo run --release --example partial_reconfig_tour > /dev/null
cargo run --release --example transfer_explorer > /dev/null

echo "== observability smoke run =="
# Scenario summaries land in the repo root as BENCH_*.json so every CI
# run leaves a perf trajectory to diff between commits (the ROADMAP
# scenario-matrix item); traces go to a scratch dir and are linted.
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
cargo run --release -p rtr-bench --bin service_scenario -- \
    --requests 24 --json BENCH_service.json \
    --trace "$obs_dir/trace.json" --profile "$obs_dir/profile.json" \
    2> /dev/null
# The exports must parse as JSON, the Chrome slices/arrows must balance,
# and every shard's busy/reconfig/idle/quarantined fractions must sum
# to 1 — trace_lint exits non-zero otherwise.
cargo run --release -p rtr-bench --bin trace_lint -- \
    --trace "$obs_dir/trace.json" --profile "$obs_dir/profile.json"

echo "== simulated-output identity gate =="
# Host-speed work must not move one simulated bit. Every paper table and
# ablation is regenerated and compared byte-for-byte with the committed
# files; bench_diff below tolerates 15% drift, this gate tolerates none.
cargo run --release -p rtr-bench --bin tables -- --full --ablations \
    --json "$obs_dir/tables.json" > "$obs_dir/tables.txt" 2> /dev/null
cmp "$obs_dir/tables.json" tables_full.json
cmp "$obs_dir/tables.txt" tables_full.txt
# The same gate over the service, fault and fleet paths the tables do not
# reach: one pass of each host-time benchmark workload at its default
# seed must reproduce the pinned digest of its simulated output. Each
# pass also prints its boot time and host speed (print-only, like the
# line count: one pass is too noisy to gate).
metric() { # metric FILE NAME: one metric's value in a benchmark --out file
    grep -A1 "\"$2\"" "$1" | sed -n 's/.*"value": \([^,]*\).*/\1/p'
}
for pin in sw_interp:e04cc084f79d10f3 service_mix:fa2fddaad1f79087 \
    hw_faults:a01152307f187424 fleet:a08b834f91f421cd; do
    workload="${pin%%:*}"
    digest="${pin#*:}"
    bash benchmark/run.sh --workload "$workload" --seconds 0 --trace 0 \
        --out "$obs_dir/$workload.json" > /dev/null 2>&1
    if ! grep -q "\"sim_digest\": \"$digest\"" "$obs_dir/$workload.json"; then
        echo "$workload: sim_digest is not $digest:" >&2
        grep '"sim_digest"' "$obs_dir/$workload.json" >&2
        exit 1
    fi
    echo "$workload: sim_digest $digest," \
        "setup_s $(metric "$obs_dir/$workload.json" setup_s) s," \
        "req_per_host_s $(metric "$obs_dir/$workload.json" req_per_host_s) req/s"
done

echo "== scheduling-policy smoke run =="
# The bin asserts swap-aware strictly beats FCFS on makespan and swaps;
# its JSON claim is gated again by bench_diff below, so a
# silently-skipped assert still fails.
cargo run --release -p rtr-bench --bin sched_scenario -- \
    --json BENCH_sched.json --trace "$obs_dir/sched_trace.json" \
    2> /dev/null
# The scheduler-decision instants (policy, chosen kernel, candidate
# set) and per-request X slices must satisfy the lint invariants.
cargo run --release -p rtr-bench --bin trace_lint -- \
    --trace "$obs_dir/sched_trace.json"

echo "== cluster smoke run =="
# Two invocations of the same seeded workloads — inline and on a 4-wide
# worker pool. The snapshot files must be byte-identical (the parallel
# determinism contract), the pooled run must clear the 2x wall-clock
# gate on any multi-core host (single-core hosts report the ratio but
# cannot run workers concurrently, so only byte-identity is gated),
# and the streamed per-shard journal plus its cross-shard merge must
# satisfy the lint ordering invariants. The gated run keeps its stderr
# so the log shows the measured ratio and the boot/serve split whether
# the gate passes or fails.
cargo run --release -p rtr-bench --bin cluster_scenario -- \
    --threads 1 --json "$obs_dir/cluster_t1.json" \
    --snapshot-out "$obs_dir/cluster_snap_t1.json" 2> /dev/null
cargo run --release -p rtr-bench --bin cluster_scenario -- \
    --threads 4 --min-speedup 2 --json BENCH_cluster.json \
    --snapshot-out "$obs_dir/cluster_snap_t4.json" \
    --journal "$obs_dir/cluster_journal"
cmp "$obs_dir/cluster_snap_t1.json" "$obs_dir/cluster_snap_t4.json"
cargo run --release -p rtr-bench --bin trace_lint -- \
    --journal "$obs_dir/cluster_journal.shard000.jsonl" \
    --journal-merged "$obs_dir/cluster_journal.merged.jsonl"

echo "== federation smoke run =="
# Two invocations of the same skewed flash-crowd workload over three
# heterogeneous pools — inline and on a 4-wide worker pool per pool.
# The bin asserts cost-model routing beats round-robin-over-pools on
# makespan and deadline-lane p99, that the flash crowd engages work
# stealing and lane-aware shedding, and that the inline and pooled
# snapshots match byte-for-byte; gate on `cmp` across the two
# invocations too (bench_diff below gates the JSON claims), then lint
# the federation's own journal shard (0xFED0 = 65232) plus the
# cross-pool merge.
cargo run --release -p rtr-bench --bin federation_scenario -- \
    --threads 1 --json "$obs_dir/federation_t1.json" \
    --snapshot-out "$obs_dir/fed_snap_t1.json" \
    --telemetry "$obs_dir/fed_tl_t1" 2> /dev/null
cargo run --release -p rtr-bench --bin federation_scenario -- \
    --threads 4 --json BENCH_federation.json \
    --snapshot-out "$obs_dir/fed_snap_t4.json" \
    --journal "$obs_dir/fed_journal" \
    --telemetry "$obs_dir/fed_tl_t4" 2> /dev/null
cmp "$obs_dir/fed_snap_t1.json" "$obs_dir/fed_snap_t4.json"
# The merged telemetry stream is pure simulated state too: the inline
# and pooled invocations must produce equal bytes.
cmp "$obs_dir/fed_tl_t1.merged.tl.jsonl" "$obs_dir/fed_tl_t4.merged.tl.jsonl"
cargo run --release -p rtr-bench --bin trace_lint -- \
    --journal "$obs_dir/fed_journal.shard65232.jsonl" \
    --journal-merged "$obs_dir/fed_journal.merged.jsonl" \
    --telemetry "$obs_dir/fed_tl_t4.shard65232.tl.jsonl" \
    --telemetry-merged "$obs_dir/fed_tl_t4.merged.tl.jsonl"

echo "== configuration-plane smoke run =="
# The bin asserts the plane's headline claims (differential + cache cut
# time and ICAP words, sub-slots cut full swaps, determinism, plane-off
# byte identity); bench_diff below gates the JSON claim too.
cargo run --release -p rtr-bench --bin config_scenario -- \
    --json BENCH_config.json --trace "$obs_dir/config_trace.json" \
    2> /dev/null
# The cache-lookup / diff-swap / slot-activate / slot-evict instants
# must be self-describing and never claim to beat the full image.
cargo run --release -p rtr-bench --bin trace_lint -- \
    --trace "$obs_dir/config_trace.json"

echo "== fault-lab smoke run =="
# The bin asserts the fault-lab claims under correlated upset bursts:
# background scrubbing strictly cuts degraded loads versus the no-scrub
# run, canary readmission holds fewer batches in quarantine than the
# fixed worst-case cooldown, and a rate-0 burst plan is byte-invisible.
# bench_diff below gates the JSON claims too, so a silently-skipped
# assert still fails.
cargo run --release -p rtr-bench --bin fault_scenario -- \
    --json BENCH_faults.json --journal "$obs_dir/fault_journal" \
    2> /dev/null
# The fault-hit, scrub-pass/repair and quarantine/canary instants of the
# no-scrub burst shard (006) and the cross-shard merge must satisfy the
# journal lint invariants.
cargo run --release -p rtr-bench --bin trace_lint -- \
    --journal "$obs_dir/fault_journal.shard006.jsonl" \
    --journal-merged "$obs_dir/fault_journal.merged.jsonl"

echo "== telemetry report =="
# The per-phase gauge summary of the federation run lands in the bench
# artifact set alongside the scenario summaries.
cargo run --release -p rtr-bench --bin telemetry_report -- \
    --input "$obs_dir/fed_tl_t4.merged.tl.jsonl" \
    --phases 4 --json BENCH_telemetry.json
grep -q '"telemetry_report"' BENCH_telemetry.json

echo "== bench trajectory gate =="
# First run seeds the committed baseline; later runs diff the fresh
# BENCH_*.json summaries against it and fail on a >15% makespan or
# tail-latency regression, on any boolean under a summary's `claims`
# object that is not true, or on a baseline claim the current summary
# dropped. The deliberate 2x-makespan injection proves the gate can
# actually fail (a gate that cannot fail gates nothing).
if [ ! -d BENCH_BASELINE ]; then
    mkdir BENCH_BASELINE
    cp BENCH_*.json BENCH_BASELINE/
    echo "seeded BENCH_BASELINE/ from this run"
fi
# A summary added after the baseline directory was first seeded (a new
# scenario bin landing in an existing checkout) enters the baseline on
# its first run — bench_diff would otherwise flag it as missing history
# and later regressions in it would never be caught.
for f in BENCH_*.json; do
    if [ ! -f "BENCH_BASELINE/$f" ]; then
        cp "$f" BENCH_BASELINE/
        echo "seeded BENCH_BASELINE/$f from this run"
    fi
done
cargo run --release -p rtr-bench --bin bench_diff -- \
    --baseline BENCH_BASELINE --current .
if cargo run --release -p rtr-bench --bin bench_diff -- \
    --baseline BENCH_BASELINE --current . \
    --inject-makespan-scale 2 2> /dev/null; then
    echo "bench_diff failed to flag a 2x makespan regression" >&2
    exit 1
fi

echo "CI OK"
