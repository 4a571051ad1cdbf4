//! End-to-end configuration-plane tests spanning the whole stack: the
//! differential/cached/compressed transfer paths must land the region in
//! exactly the configuration the full-image path produces, and the cache
//! must be a pure accelerator — same bytes out, only its own counters
//! differ.

use vp2_repro::apps::request::{component_for, factory_for, Kernel, Request};
use vp2_repro::configplane::ConfigPlaneConfig;
use vp2_repro::rtr::manager::{LoadOutcome, ModuleManager};
use vp2_repro::rtr::{build_system, Machine, SystemKind};
use vp2_repro::service::{MetricsSnapshot, Service, ServiceConfig};
use vp2_repro::sim::{SimTime, SplitMix64};

/// Manager + machine with the pattern-matching and brightness kernels
/// registered region-wide under `plane`.
fn rig(kind: SystemKind, plane: ConfigPlaneConfig) -> (Machine, ModuleManager) {
    let machine = build_system(kind);
    let mut mgr = ModuleManager::new(kind);
    mgr.configure_plane(plane).expect("valid plan");
    for kernel in [Kernel::PatMatch, Kernel::Brightness] {
        mgr.register(
            component_for(kernel, kind).expect("hardware form exists"),
            (0, 0),
            factory_for(kernel),
        )
        .expect("registers");
    }
    (machine, mgr)
}

/// The region's live frame contents, flattened for comparison.
fn region_words(machine: &Machine, mgr: &ModuleManager) -> Vec<u32> {
    mgr.slot_plan().slots[0]
        .frames
        .iter()
        .flat_map(|&addr| machine.platform.config.frame(addr).to_vec())
        .collect()
}

#[test]
fn differential_loads_land_the_exact_full_image_configuration() {
    // Two identical machines; only the transfer path differs. After every
    // load the live configuration memory must match word for word — the
    // plane changes how bits travel, never which bits arrive. This covers
    // the whole diff spectrum: the first load of each module diffs against
    // a blank region (near-full diff), the later swaps against the other
    // module's state (partial diff), and a repeated transition replays the
    // cache.
    let kind = SystemKind::Bit32;
    let (mut m_full, mut mgr_full) = rig(kind, ConfigPlaneConfig::default());
    let (mut m_diff, mut mgr_diff) = rig(kind, ConfigPlaneConfig::full());
    for kernel in [
        Kernel::PatMatch,
        Kernel::Brightness,
        Kernel::PatMatch,
        Kernel::Brightness,
    ] {
        let name = kernel.module_name();
        assert!(matches!(
            mgr_full.load(&mut m_full, name),
            Ok(LoadOutcome::Loaded { .. })
        ));
        assert!(matches!(
            mgr_diff.load(&mut m_diff, name),
            Ok(LoadOutcome::Loaded { .. })
        ));
        assert_eq!(
            region_words(&m_full, &mgr_full),
            region_words(&m_diff, &mgr_diff),
            "{name}: differential path must land the full-image configuration"
        );
    }
    // Worst case bound: diffing and compression may save nothing, but can
    // never send more than the full image holds.
    let stats = mgr_diff.plane_stats();
    assert!(stats.frames_sent <= stats.frames_full);
    assert!(stats.words_sent <= stats.words_full);
    assert!(stats.cache_hits >= 1, "the repeat lap replays: {stats:?}");
}

/// One repeated-swap service round (pattern-match batch, then deep fades).
fn swap_round(seed: u64) -> Vec<(SimTime, Request)> {
    let mut rng = SplitMix64::new(seed);
    let mut sched = Vec::new();
    for i in 0..4 {
        sched.push((
            SimTime::from_ns(i),
            Request::synthetic(Kernel::PatMatch, 1024, &mut rng),
        ));
    }
    for i in 4..12 {
        sched.push((
            SimTime::from_ns(i),
            Request::synthetic(Kernel::Fade, 16384, &mut rng),
        ));
    }
    sched
}

#[test]
fn cache_on_and_cold_cache_differ_only_in_cache_counters() {
    // Equal seeds, differential + compression on in both runs; the only
    // difference is the cache. A hit replays exactly the stream diffing
    // would have produced, so every metric outside the cache's own
    // counters — completions, latencies, swap costs, words moved — must
    // be byte-identical.
    let run = |cache_capacity: usize| -> MetricsSnapshot {
        let round = swap_round(11);
        let mut svc = Service::new(ServiceConfig {
            kernels: vec![Kernel::PatMatch, Kernel::Fade],
            plane: ConfigPlaneConfig {
                cache_capacity,
                ..ConfigPlaneConfig::full()
            },
            ..ServiceConfig::new(SystemKind::Bit32)
        });
        for _ in 0..2 {
            let snap = svc.process(&round).expect("sorted schedule");
            assert_eq!(snap.verify_failures, 0);
        }
        svc.lifetime()
    };
    let mut warm = run(16);
    let cold = run(0);
    let warm_plane = warm.plane.expect("plane on");
    let cold_plane = cold.plane.expect("plane on");
    assert!(warm_plane.cache_hits >= 1, "warm run hits: {warm_plane:?}");
    assert_eq!(cold_plane.cache_hits, 0, "no cache, no hits");
    assert_eq!(cold_plane.cache_misses, 0);
    // Splice the cache counters across and demand byte identity on
    // everything else.
    warm.plane = Some(vp2_repro::configplane::ConfigPlaneStats {
        cache_hits: cold_plane.cache_hits,
        cache_misses: cold_plane.cache_misses,
        cache_evictions: cold_plane.cache_evictions,
        ..warm_plane
    });
    assert_eq!(
        warm.to_json().render(),
        cold.to_json().render(),
        "the cache must only accelerate, never change results"
    );
}

#[test]
fn zero_diff_swap_is_free_end_to_end() {
    // Two registrations of the same netlist produce identical expected
    // states; swapping between them under the differential plane feeds
    // the ICAP nothing and completes instantly.
    let kind = SystemKind::Bit32;
    let mut machine = build_system(kind);
    let mut mgr = ModuleManager::new(kind);
    mgr.configure_plane(ConfigPlaneConfig {
        cache_capacity: 0,
        compress: false,
        ..ConfigPlaneConfig::full()
    })
    .expect("valid plan");
    let original = component_for(Kernel::Jenkins, kind).expect("fits");
    let mut twin = component_for(Kernel::Jenkins, kind).expect("fits");
    twin.name = "jenkins-twin".to_string();
    mgr.register(original, (0, 0), factory_for(Kernel::Jenkins))
        .expect("registers");
    mgr.register(twin, (0, 0), factory_for(Kernel::Jenkins))
        .expect("registers");

    mgr.load(&mut machine, "jenkins-lookup2")
        .expect("first load");
    let words_before = machine.platform.icap.words_shifted;
    let out = mgr.load(&mut machine, "jenkins-twin").expect("twin load");
    let LoadOutcome::Loaded { reconfig_time, .. } = out else {
        panic!("the twin is a distinct module: {out:?}");
    };
    assert_eq!(reconfig_time, SimTime::ZERO, "nothing to write");
    assert_eq!(
        machine.platform.icap.words_shifted, words_before,
        "a zero-diff swap moves no ICAP words"
    );
    assert_eq!(mgr.loaded(), Some("jenkins-twin"));
}
