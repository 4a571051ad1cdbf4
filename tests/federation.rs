//! Integration tests for the multi-cluster federation tier: equal seeds
//! must produce byte-identical federated snapshots and merged journals
//! at every thread count and at every pool count, cost-model routing
//! must beat round-robin-over-pools on the skewed workload, the
//! flash crowd must engage bounded work stealing, and every shard must
//! boot with the cost model a standalone calibration gives.

use vp2_repro::apps::request::Kernel;
use vp2_repro::cluster::{ClusterConfig, RoutePolicy};
use vp2_repro::federation::{
    FedPolicy, Federation, FederationConfig, FederationSnapshot, POOL_STRIDE,
};
use vp2_repro::rtr::SystemKind;
use vp2_repro::service::cost::kernel_has_hw;
use vp2_repro::service::{CostModel, FlashCrowd, ServiceConfig, TrafficConfig};
use vp2_repro::sim::SimTime;
use vp2_repro::telemetry::Telemetry;
use vp2_repro::trace::Tracer;

/// Thread counts every determinism assertion sweeps: inline, a pool
/// smaller than the shard count, and a pool wider than it.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Heterogeneous pools, scaled down from `federation_scenario`: an
/// all-Bit32 pool (no SHA-1 hardware), an all-Bit64 pool, and a mixed
/// pool. `count` trims the list from the front — `count == 1` leaves a
/// single all-Bit32 pool, the degenerate federation.
fn pools(count: usize, threads: usize) -> Vec<ClusterConfig> {
    let pool = |shards: Vec<ServiceConfig>| ClusterConfig {
        shards,
        kernels: vec![Kernel::Sha1, Kernel::Brightness, Kernel::Jenkins],
        stale_estimates: true,
        threads,
        ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::LeastLoaded)
    };
    let mut all = vec![
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
    ];
    all.truncate(count);
    all
}

/// The Zipf-skewed flash-crowd stream: SHA-1 hottest (and hardware-less
/// on Bit32), a quarter of the traffic on deadlines, and the middle
/// third arriving 16x faster pinned to SHA-1.
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

/// One federated run with streamed journals: returns the snapshot (for
/// field asserts), its pretty JSON render and the merged journal text —
/// the latter two must be pure functions of the seed and pool count,
/// never of the thread count.
fn fed_run(
    pool_count: usize,
    policy: FedPolicy,
    threads: usize,
) -> (FederationSnapshot, String, String) {
    let base = std::env::temp_dir().join(format!(
        "vp2_federation_journal_{}_{pool_count}_{}_{threads}",
        std::process::id(),
        policy.name()
    ));
    let base = base.to_str().expect("utf-8 temp path").to_string();
    let tracer = Tracer::enabled();
    tracer.stream_to(&base).expect("attach journal streams");
    let mut fed = Federation::new(FederationConfig {
        policy,
        shed_watermark: 9,
        steal_watermark: 12,
        steal_batch: 3,
        trace: tracer.clone(),
        ..FederationConfig::new(pools(pool_count, threads))
    });
    let snap = fed.run(traffic().stream());
    let merged_path = format!("{base}.merged.jsonl");
    let lines = tracer.merge_streams(&merged_path).expect("merge journals");
    assert!(lines > 0, "a traced federation streams events");
    let merged = std::fs::read_to_string(&merged_path).expect("read merged journal");
    for path in tracer.flush_streams().expect("stream paths") {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(&merged_path);
    let render = snap_render(&snap);
    (snap, render, merged)
}

fn snap_render(snap: &FederationSnapshot) -> String {
    snap.to_json().render_pretty()
}

#[test]
fn federated_snapshots_and_journals_are_identical_at_any_thread_count() {
    let (snap, render_inline, journal_inline) = fed_run(3, FedPolicy::CostModel, 1);
    assert_eq!(snap.admitted, 120, "every request admitted");
    assert_eq!(snap.total.completed, 120, "every request served");
    // One fed_route line per request plus shard-level events: the
    // journal must cover the federation's own decisions too.
    assert!(
        journal_inline.contains("\"kind\":\"fed_route\""),
        "routing decisions are journaled"
    );
    for threads in &THREAD_COUNTS[1..] {
        let (_, render, journal) = fed_run(3, FedPolicy::CostModel, *threads);
        assert_eq!(
            render_inline, render,
            "federated snapshot diverged at {threads} threads"
        );
        assert_eq!(
            journal_inline, journal,
            "merged journal diverged at {threads} threads"
        );
    }
}

#[test]
fn a_single_pool_federation_is_deterministic_and_never_sheds_or_steals() {
    let (snap, render_inline, journal_inline) = fed_run(1, FedPolicy::CostModel, 1);
    assert_eq!(snap.total.completed, 120, "every request served");
    // With nowhere to divert to, the shed and steal paths must stay
    // cold — the degenerate federation is just a cluster.
    assert_eq!(snap.sheds, 0, "one pool cannot shed");
    assert_eq!(snap.steal_events, 0, "one pool cannot steal");
    for threads in &THREAD_COUNTS[1..] {
        let (_, render, journal) = fed_run(1, FedPolicy::CostModel, *threads);
        assert_eq!(
            render_inline, render,
            "single-pool snapshot diverged at {threads} threads"
        );
        assert_eq!(
            journal_inline, journal,
            "single-pool journal diverged at {threads} threads"
        );
    }
}

#[test]
fn cost_model_routing_beats_round_robin_and_the_flash_crowd_engages_stealing() {
    let (rr, _, _) = fed_run(3, FedPolicy::RoundRobin, 2);
    let (cost, _, _) = fed_run(3, FedPolicy::CostModel, 2);
    assert!(
        cost.makespan < rr.makespan,
        "cost-model makespan {} must undercut round-robin {}",
        cost.makespan,
        rr.makespan
    );
    assert!(
        cost.total.latency_p99_deadline < rr.total.latency_p99_deadline,
        "cost-model deadline p99 {} must undercut round-robin {}",
        cost.total.latency_p99_deadline,
        rr.total.latency_p99_deadline
    );
    assert!(
        cost.steal_events > 0,
        "the flash crowd must engage work stealing"
    );
    assert!(cost.stolen > 0, "steal events move requests");
    assert!(
        cost.sheds > 0,
        "the backed-up home pool must shed deadline traffic"
    );
}

#[test]
fn shared_boots_match_standalone_calibrations_at_any_thread_count() {
    // One federation boot shares calibrations and images between every
    // shard; each shard must still end up with exactly the cost model a
    // standalone calibration of its kind and kernels yields, plus its own
    // warm-up observation. The mixed pool serves fewer kernels, so its
    // shards need calibrations of their own.
    let mixed_kernels = vec![Kernel::Brightness, Kernel::Jenkins];
    let mut standalone: Vec<((SystemKind, Vec<Kernel>), CostModel)> = Vec::new();
    for threads in [1, 4] {
        let mut configs = pools(3, threads);
        configs[2].kernels = mixed_kernels.clone();
        let kernels: Vec<Vec<Kernel>> = configs.iter().map(|c| c.kernels.clone()).collect();
        let fed = Federation::new(FederationConfig::new(configs));
        let mut images = Vec::new();
        for (pool, kernels) in fed.pools().iter().zip(&kernels) {
            for shard in pool.shards() {
                let svc = shard.service();
                let key = (svc.kind(), kernels.clone());
                let mut expected = match standalone.iter().find(|(k, _)| *k == key) {
                    Some((_, model)) => model.clone(),
                    None => {
                        let model = CostModel::calibrate(key.0, &key.1);
                        standalone.push((key.clone(), model.clone()));
                        model
                    }
                };
                let warmup = *kernels
                    .iter()
                    .find(|&&k| kernel_has_hw(k, key.0))
                    .expect("every pool has a hardware kernel");
                expected.observe_reconfig_for(warmup, svc.manager().total_reconfig_time);
                assert_eq!(
                    svc.cost_model(),
                    &expected,
                    "{key:?} shard {} at {threads} threads",
                    shard.id()
                );
                // Shards of one kind hold the very same linked images.
                let jenkins = Kernel::Jenkins.module_name();
                let image = svc.manager().linked_image(jenkins, 0).unwrap();
                match images.iter().find(|(kind, _)| *kind == key.0) {
                    Some((_, first)) => assert!(
                        std::sync::Arc::ptr_eq(first, image),
                        "{:?} shards share one image",
                        key.0
                    ),
                    None => images.push((key.0, image.clone())),
                }
            }
        }
        assert_eq!(images.len(), 2, "the pools mix both kinds");
    }
    assert_eq!(standalone.len(), 4, "two kernel sets on each kind");
}

#[test]
fn pool_shards_journal_under_their_pool_stride() {
    // The federation boots pool `p` with shard-id base `p · POOL_STRIDE`:
    // every shard's journal and telemetry handles carry that id, and the
    // boot-time warm-up loads already journal under it.
    let tracer = Tracer::enabled();
    let fed = Federation::new(FederationConfig {
        trace: tracer.clone(),
        telemetry: Telemetry::enabled(),
        ..FederationConfig::new(pools(3, 1))
    });
    let mut expected = Vec::new();
    for (p, pool) in fed.pools().iter().enumerate() {
        for shard in pool.shards() {
            let id = p as u32 * POOL_STRIDE + shard.id() as u32;
            assert_eq!(shard.service().tracer().shard(), id);
            assert_eq!(shard.service().telemetry().shard(), id);
            expected.push(id);
        }
    }
    assert_eq!(expected, [0, 1, 100, 101, 200, 201]);
    let mut journaled: Vec<u32> = tracer.events().iter().map(|ev| ev.shard).collect();
    journaled.sort_unstable();
    journaled.dedup();
    assert_eq!(journaled, expected, "boot events journal under pool ids");
}
