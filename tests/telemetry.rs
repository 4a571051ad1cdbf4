//! Integration tests for the telemetry plane: equal seeds must produce
//! byte-identical merged telemetry streams at every thread count,
//! sampling must never perturb the simulation (telemetry-on and
//! telemetry-off snapshots are byte-identical), and bounded metrics
//! windows must keep counters exact while staying deterministic under
//! parallel execution.

use vp2_repro::apps::request::Kernel;
use vp2_repro::cluster::{Cluster, ClusterConfig, RoutePolicy};
use vp2_repro::federation::{FedPolicy, Federation, FederationConfig};
use vp2_repro::rtr::SystemKind;
use vp2_repro::service::{FlashCrowd, ServiceConfig, TrafficConfig};
use vp2_repro::sim::SimTime;
use vp2_repro::telemetry::Telemetry;

/// Thread counts every determinism assertion sweeps: inline, a pool
/// smaller than the shard count, and a pool wider than it.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Heterogeneous pools, scaled down from `federation_scenario` (same
/// shape as `tests/federation.rs`).
fn pools(threads: usize) -> Vec<ClusterConfig> {
    let pool = |shards: Vec<ServiceConfig>| ClusterConfig {
        shards,
        kernels: vec![Kernel::Sha1, Kernel::Brightness, Kernel::Jenkins],
        stale_estimates: true,
        threads,
        ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::LeastLoaded)
    };
    vec![
        pool(vec![
            ServiceConfig::new(SystemKind::Bit32),
            ServiceConfig::new(SystemKind::Bit32),
        ]),
        pool(vec![
            ServiceConfig::new(SystemKind::Bit64),
            ServiceConfig::new(SystemKind::Bit64),
        ]),
        pool(vec![
            ServiceConfig::new(SystemKind::Bit32),
            ServiceConfig::new(SystemKind::Bit64),
        ]),
    ]
}

/// The Zipf-skewed flash-crowd stream from `tests/federation.rs` — deep
/// enough to engage stealing and shedding, so the federation scope has
/// nonzero rates to sample.
fn traffic() -> TrafficConfig {
    let requests = 120;
    TrafficConfig {
        seed: 0xFED_2026,
        requests,
        kernels: vec![Kernel::Sha1, Kernel::Brightness, Kernel::Jenkins],
        mean_gap: SimTime::from_us(40),
        burst_percent: 30,
        min_payload: 4 * 1024,
        max_payload: 12 * 1024,
        deadline_percent: 25,
        deadline_budget: SimTime::from_ms(2),
        zipf_skew: 1.1,
        flash: Some(FlashCrowd {
            start: requests / 3,
            len: requests / 3,
            gap_divisor: 16,
        }),
        ..TrafficConfig::default()
    }
}

/// One telemetry-streamed federated run: returns the snapshot render
/// and the merged telemetry text — both must be pure functions of the
/// seed, never of the thread count.
fn fed_tl_run(threads: usize) -> (String, String) {
    let base = std::env::temp_dir().join(format!(
        "vp2_telemetry_stream_{}_{threads}",
        std::process::id()
    ));
    let base = base.to_str().expect("utf-8 temp path").to_string();
    let telemetry = Telemetry::enabled();
    telemetry
        .stream_to(&base)
        .expect("attach telemetry streams");
    let mut fed = Federation::new(FederationConfig {
        policy: FedPolicy::CostModel,
        shed_watermark: 9,
        steal_watermark: 12,
        steal_batch: 3,
        telemetry: telemetry.clone(),
        ..FederationConfig::new(pools(threads))
    });
    let snap = fed.run(traffic().stream());
    let merged_path = format!("{base}.merged.tl.jsonl");
    let rows = telemetry
        .merge_streams(&merged_path)
        .expect("merge telemetry streams");
    assert!(rows > 0, "a sampled federation streams telemetry");
    let merged = std::fs::read_to_string(&merged_path).expect("read merged telemetry");
    for path in telemetry.flush_streams().expect("stream paths") {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(&merged_path);
    (snap.to_json().render_pretty(), merged)
}

#[test]
fn merged_telemetry_streams_are_identical_at_any_thread_count() {
    let (render_inline, stream_inline) = fed_tl_run(1);
    // The stream must cover every sampling scope: the federation's own
    // admission gauges, per-shard service samples, the coordinator's
    // buffer-depth rows, and the per-flush window rows.
    for scope in ["federation", "service", "buffer", "window"] {
        assert!(
            stream_inline.contains(&format!("\"scope\":\"{scope}\"")),
            "merged stream must carry {scope:?} samples"
        );
    }
    for threads in &THREAD_COUNTS[1..] {
        let (render, stream) = fed_tl_run(*threads);
        assert_eq!(
            render_inline, render,
            "federated snapshot diverged at {threads} threads"
        );
        assert_eq!(
            stream_inline, stream,
            "merged telemetry diverged at {threads} threads"
        );
    }
}

/// One cluster run over the mixed workload; `telemetry` and
/// `bounded_windows` are the knobs under test.
fn cluster_run(telemetry: Telemetry, bounded_windows: Option<usize>, threads: usize) -> String {
    let mixed = TrafficConfig {
        seed: 0x0007_AF1C_2026,
        requests: 64,
        kernels: vec![Kernel::Brightness, Kernel::Sha1, Kernel::Jenkins],
        mean_gap: SimTime::from_us(2),
        burst_percent: 40,
        min_payload: 12 * 1024,
        max_payload: 16 * 1024,
        deadline_percent: 20,
        deadline_budget: SimTime::from_ms(10),
        ..TrafficConfig::default()
    };
    let mut cluster = Cluster::new(ClusterConfig {
        kernels: vec![Kernel::Brightness, Kernel::Sha1, Kernel::Jenkins],
        telemetry,
        bounded_windows,
        threads,
        ..ClusterConfig::uniform(SystemKind::Bit64, 4, RoutePolicy::KernelAffinity)
    });
    cluster.run(mixed.stream()).to_json().render_pretty()
}

#[test]
fn sampling_never_perturbs_the_simulation() {
    // Telemetry reads the simulation; it must never advance it. The
    // snapshot with sampling on is byte-identical to the one with the
    // plane disabled entirely.
    let off = cluster_run(Telemetry::disabled(), None, 1);
    let telemetry = Telemetry::enabled();
    let on = cluster_run(telemetry.clone(), None, 1);
    assert!(!telemetry.is_empty(), "an enabled handle collects samples");
    assert_eq!(
        off, on,
        "telemetry-on snapshot must be byte-identical to telemetry-off"
    );
}

#[test]
fn bounded_windows_keep_counters_exact_and_stay_deterministic() {
    let exact = cluster_run(Telemetry::disabled(), None, 1);
    let bounded = cluster_run(Telemetry::disabled(), Some(16), 1);
    // The trimmed latency series may shift the tail percentiles, but
    // every counter the scenarios assert on is still exact.
    for key in ["\"completed\": 64", "\"verify_failures\": 0"] {
        assert!(
            bounded.contains(key),
            "bounded-window snapshot must keep counters exact ({key})"
        );
        assert!(exact.contains(key), "exact snapshot sanity ({key})");
    }
    // Bounded windows obey the same determinism contract as exact ones.
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            bounded,
            cluster_run(Telemetry::disabled(), Some(16), *threads),
            "bounded-window snapshot diverged at {threads} threads"
        );
    }
}
