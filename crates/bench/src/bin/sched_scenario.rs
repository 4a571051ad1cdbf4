//! Compares the batch-scheduling policies on one interleaved
//! mixed-kernel workload and emits a machine-readable JSON summary —
//! the scheduling counterpart of `service_scenario`.
//!
//! One seeded arrival schedule, three services that differ only in
//! [`BatchPolicy`]:
//!
//! * **fcfs_drain** — drain the queue whose head arrived earliest (the
//!   pre-policy baseline).
//! * **swap_aware** — stay with the resident module until another
//!   kernel's queue matures past its break-even depth, where maturity
//!   charges a round trip (swap there and back) whenever switching
//!   would strand live resident work. Must beat FCFS on both makespan
//!   and swap count (asserted; the summary's `claims` object carries
//!   `swap_aware_beats_fcfs` for `bench_diff`).
//! * **lanes** — priority/deadline scheduling over the same traffic,
//!   which carries a slice of deadline and high-priority requests. The
//!   summary reports how many deadlines each policy met so the lanes
//!   win is visible, not just asserted.
//!
//! The swap-aware run is journaled when `--trace`/`--profile` is given,
//! so every scheduler decision (candidate set + chosen kernel) lands in
//! the export for `trace_lint` to check.
//!
//! ```text
//! sched_scenario                   # default workload
//! sched_scenario --requests 128    # heavier run
//! sched_scenario --json out.json   # write the summary to a file
//! ```

use rtr_apps::request::{Kernel, Request};
use rtr_bench::scenario::{self, ScenarioArgs};
use rtr_core::SystemKind;
use rtr_service::{BatchPolicy, MetricsSnapshot, Service, ServiceConfig, TrafficConfig};
use rtr_trace::Tracer;
use vp2_sim::{Json, SimTime};

/// Runs one service under the given policy over the shared schedule.
fn run(
    kind: SystemKind,
    kernels: &[Kernel],
    batch: BatchPolicy,
    schedule: &[(SimTime, Request)],
    trace: Tracer,
    telemetry: rtr_telemetry::Telemetry,
) -> MetricsSnapshot {
    let mut svc = Service::new(ServiceConfig {
        batch,
        kernels: kernels.to_vec(),
        trace,
        telemetry,
        ..ServiceConfig::new(kind)
    });
    let snap = svc.process(schedule).expect("generated traffic is sorted");
    assert_eq!(
        snap.completed as usize,
        schedule.len(),
        "all requests served"
    );
    assert_eq!(snap.verify_failures, 0, "responses must verify");
    snap
}

fn main() {
    let args = ScenarioArgs::parse();
    let requests: usize = args.parsed_or("--requests", 128);
    let seed: u64 = args.parsed_or("--seed", 0x0007_AF1C_2026);
    let json_path = args.json_path();
    let tracer = args.tracer();
    let telemetry = args.telemetry();

    // Interleaved mix on the 64-bit system, tuned to the band where the
    // policies genuinely diverge. PatMatch is the anchor: its software
    // fallback is catastrophic (~100x), so it earns and holds the
    // region. Sha1 is the competitor: hardware saves ~2.8 ms per 8-16 KB
    // item against a ~6 ms reconfiguration, so a shallow sha1 batch
    // tempts FCFS into a swap that barely pays one way and not at all
    // once the region swaps back. Jenkins is ballast — software is
    // nearly free, hardware never pays. At a ~3.2 ms mean gap the
    // service runs near capacity: queues are deep enough to mature but
    // the backlog never drowns the decision (in deep overload every
    // policy degenerates to FCFS-among-mature and the comparison says
    // nothing). A slice of the traffic carries deadlines and high
    // priority so the lanes run has something to reorder (the other
    // policies see the very same requests and simply ignore the lane).
    let kernels = vec![Kernel::PatMatch, Kernel::Sha1, Kernel::Jenkins];
    let traffic = TrafficConfig {
        seed,
        requests,
        kernels: kernels.clone(),
        mean_gap: SimTime::from_us(3200),
        burst_percent: 0,
        min_payload: 8 * 1024,
        max_payload: 16 * 1024,
        deadline_percent: 20,
        deadline_budget: SimTime::from_ms(10),
        high_percent: 10,
        ..TrafficConfig::default()
    }
    .generate();

    let policies = [
        BatchPolicy::FcfsDrain,
        BatchPolicy::swap_aware(),
        BatchPolicy::Lanes,
    ];
    let mut snaps = Vec::new();
    for batch in policies {
        eprintln!("[sched] {} / {requests} requests...", batch.name());
        let (trace, tl) = if batch == BatchPolicy::swap_aware() {
            (tracer.clone(), telemetry.clone())
        } else {
            (Tracer::disabled(), rtr_telemetry::Telemetry::disabled())
        };
        let snap = run(SystemKind::Bit64, &kernels, batch, &traffic, trace, tl);
        eprintln!(
            "[sched]   makespan {}, swaps {}, hw {} / sw {}, deadlines {} met / {} missed",
            snap.elapsed,
            snap.swaps,
            snap.hw_items,
            snap.sw_items,
            snap.deadline_met,
            snap.deadline_missed
        );
        snaps.push((batch, snap));
    }
    let fcfs = &snaps[0].1;
    let swap = &snaps[1].1;
    let lanes = &snaps[2].1;

    // The headline claim, asserted here and re-checked by CI on the
    // JSON: swap-aware strictly beats the FCFS baseline on makespan AND
    // on ICAP traffic for the interleaved mix.
    assert!(
        swap.elapsed < fcfs.elapsed,
        "swap-aware makespan {} must undercut fcfs {}",
        swap.elapsed,
        fcfs.elapsed
    );
    assert!(
        swap.swaps < fcfs.swaps,
        "swap-aware swaps {} must undercut fcfs {}",
        swap.swaps,
        fcfs.swaps
    );

    // Same seed, same policy: the rerun must be byte-identical (the
    // journal is off for the rerun, which must not matter).
    let rerun = run(
        SystemKind::Bit64,
        &kernels,
        BatchPolicy::swap_aware(),
        &traffic,
        Tracer::disabled(),
        rtr_telemetry::Telemetry::disabled(),
    );
    assert_eq!(
        rerun.to_json().render(),
        swap.to_json().render(),
        "equal seeds must give byte-identical results"
    );

    let summary = Json::obj().field(
        "sched_scenario",
        Json::obj()
            .field("system", "Bit64")
            .field("requests", requests)
            .field("seed", seed)
            .field(
                "kernels",
                Json::Arr(
                    kernels
                        .iter()
                        .map(|k| Json::Str(k.module_name().into()))
                        .collect(),
                ),
            )
            .field("claims", Json::obj().field("swap_aware_beats_fcfs", true))
            .field(
                "swap_aware_makespan_ratio",
                swap.elapsed.as_ps() as f64 / fcfs.elapsed.as_ps().max(1) as f64,
            )
            .field("swap_aware_swaps_saved", fcfs.swaps - swap.swaps)
            .field(
                "lanes_deadline_misses_vs_fcfs",
                Json::obj()
                    .field("lanes", lanes.deadline_missed)
                    .field("fcfs_drain", fcfs.deadline_missed),
            )
            .field(
                "policies",
                Json::Arr(
                    snaps
                        .iter()
                        .map(|(p, s)| {
                            Json::obj()
                                .field("policy", p.name())
                                .field("metrics", s.to_json())
                        })
                        .collect(),
                ),
            ),
    );
    scenario::emit("sched", json_path.as_deref(), &summary);
    scenario::export("sched", &args, &tracer, &telemetry);
}
