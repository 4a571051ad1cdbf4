//! Exercises the configuration plane — bitstream cache, differential
//! frame compression, multi-module sub-slots — and asserts its headline
//! claims, emitting a machine-readable JSON summary (the configuration
//! counterpart of `sched_scenario`).
//!
//! Four claims, each asserted here and re-checkable by CI on the JSON:
//!
//! * **Differential + cache win** — on a repeated-swap workload the warm
//!   plane (cache + differential + compression) moves strictly fewer
//!   ICAP words and spends strictly less total reconfiguration time
//!   than the plane-off path.
//! * **Multi-module win** — two slot-sized kernels alternating in a
//!   two-slot floorplan complete with strictly fewer full-region swaps
//!   than the same alternation through one region-wide slot (repeat
//!   loads are dock re-activations, zero ICAP traffic).
//! * **Determinism** — equal seeds give byte-identical service JSON,
//!   plane on or off, journaled or not.
//! * **Baseline identity** — FCFS with every plane feature off renders
//!   byte-identical JSON to the default service configuration and
//!   carries no `configplane` section: the plane's off state is the
//!   pre-plane service, not a new code path.
//!
//! The warm service run and the manager-level sub-slot runs are
//! journaled when `--trace`/`--profile` is given, so the cache-lookup /
//! diff-swap / slot-activate / slot-evict instants land in the export
//! for `trace_lint` to check.
//!
//! ```text
//! config_scenario                   # default workload
//! config_scenario --swaps 16        # longer alternation
//! config_scenario --json out.json   # write the summary to a file
//! ```

use rtr_apps::request::{component_for, component_for_slot, factory_for, Kernel, Request};
use rtr_bench::scenario::{self, ScenarioArgs};
use rtr_configplane::{ConfigPlaneConfig, ConfigPlaneStats};
use rtr_core::{build_system, LoadOutcome, ModuleManager, SystemKind};
use rtr_service::{BatchPolicy, MetricsSnapshot, Service, ServiceConfig};
use rtr_trace::Tracer;
use vp2_sim::{Json, SimTime, SplitMix64};

/// What one manager-level alternation run cost.
struct SwapRun {
    /// Cumulative reconfiguration time.
    reconfig_time: SimTime,
    /// Words shifted through the ICAP over the whole run.
    icap_words: u64,
    /// Full (bitstream-feeding) swaps performed.
    reconfigurations: u64,
    /// The plane's own counters.
    stats: ConfigPlaneStats,
}

/// Boots a machine + manager under `plane`, registers `kernels` (sized to
/// `slot_width` columns when given, region-wide otherwise) and loads them
/// in rotation `loads` times. Every load must end verified — this is a
/// fault-free fabric.
fn alternating_loads(
    kind: SystemKind,
    plane: ConfigPlaneConfig,
    slot_width: Option<u16>,
    kernels: &[Kernel],
    loads: usize,
    tracer: Tracer,
) -> SwapRun {
    let mut machine = build_system(kind);
    let mut mgr = ModuleManager::new(kind);
    mgr.configure_plane(plane).expect("valid slot plan");
    mgr.set_tracer(tracer);
    for &k in kernels {
        let comp = match slot_width {
            Some(w) => component_for_slot(k, kind, w).expect("kernel fits the sub-slot"),
            None => component_for(k, kind).expect("kernel has a hardware form"),
        };
        mgr.register(comp, (0, 0), factory_for(k))
            .expect("registration links");
    }
    for i in 0..loads {
        let k = kernels[i % kernels.len()];
        let out = mgr
            .load(&mut machine, k.module_name())
            .expect("known module");
        assert!(
            !matches!(out, LoadOutcome::Degraded { .. }),
            "fault-free loads must verify"
        );
    }
    SwapRun {
        reconfig_time: mgr.total_reconfig_time,
        icap_words: machine.platform.icap.words_shifted,
        reconfigurations: mgr.reconfigurations,
        stats: mgr.plane_stats(),
    }
}

/// One round of the repeated-swap service workload: a pattern-matching
/// batch then a deep fade batch. Both amortize a cold swap, so every
/// round forces a swap to fade and (next round) back to pattern matching.
fn service_round(seed: u64) -> Vec<(SimTime, Request)> {
    let mut rng = SplitMix64::new(seed);
    let mut sched = Vec::new();
    for i in 0..6 {
        sched.push((
            SimTime::from_ns(i),
            Request::synthetic(Kernel::PatMatch, 1024, &mut rng),
        ));
    }
    for i in 6..16 {
        sched.push((
            SimTime::from_ns(i),
            Request::synthetic(Kernel::Fade, 16384, &mut rng),
        ));
    }
    sched
}

/// Serves `rounds` rounds of the repeated-swap workload under `plane` and
/// returns the lifetime snapshot.
fn run_service(
    plane: ConfigPlaneConfig,
    rounds: usize,
    round: &[(SimTime, Request)],
    trace: Tracer,
    telemetry: rtr_telemetry::Telemetry,
) -> MetricsSnapshot {
    let mut svc = Service::new(ServiceConfig {
        kernels: vec![Kernel::PatMatch, Kernel::Fade],
        plane,
        trace,
        telemetry,
        ..ServiceConfig::new(SystemKind::Bit32)
    });
    for _ in 0..rounds {
        let snap = svc.process(round).expect("sorted schedule");
        assert_eq!(snap.completed as usize, round.len(), "all requests served");
        assert_eq!(snap.verify_failures, 0, "responses must verify");
    }
    svc.lifetime()
}

fn main() {
    let args = ScenarioArgs::parse();
    let loads: usize = args.parsed_or("--swaps", 8);
    let rounds: usize = args.parsed_or("--rounds", 3);
    let seed: u64 = args.parsed_or("--seed", 11);
    let json_path = args.json_path();
    let tracer = args.tracer();
    // Telemetry covers the service-level warm run (claim 3) — the only
    // stage with a service to sample.
    let telemetry = args.telemetry();
    let kind = SystemKind::Bit32;

    // ------------------------------------------------------------------
    // Claim 1 — differential + cache strictly cut time and ICAP words.
    // Region-wide pattern-match / fade alternation: every load is a real
    // swap, so the plane-off run pays the full image each time while the
    // warm plane diffs, compresses, and (from the second lap) replays
    // cached transfer images.
    // ------------------------------------------------------------------
    let full_kernels = [Kernel::PatMatch, Kernel::Fade];
    eprintln!("[config] {loads} alternating region-wide swaps, plane off...");
    let cold = alternating_loads(
        kind,
        ConfigPlaneConfig::default(),
        None,
        &full_kernels,
        loads,
        Tracer::disabled(),
    );
    eprintln!("[config] {loads} alternating region-wide swaps, plane on...");
    let warm = alternating_loads(
        kind,
        ConfigPlaneConfig::full(),
        None,
        &full_kernels,
        loads,
        tracer.with_shard(1),
    );
    assert!(
        warm.reconfig_time < cold.reconfig_time,
        "differential + cache must cut total reconfiguration time: {} vs {}",
        warm.reconfig_time,
        cold.reconfig_time
    );
    assert!(
        warm.icap_words < cold.icap_words,
        "differential + cache must move fewer ICAP words: {} vs {}",
        warm.icap_words,
        cold.icap_words
    );
    assert!(warm.stats.cache_hits >= 1, "repeat transitions replay");
    assert!(warm.stats.diff_ratio() < 1.0, "diffing must drop words");
    eprintln!(
        "[config]   time {} -> {} ({:.1}%), words {} -> {} ({:.1}%), {} cache hits",
        cold.reconfig_time,
        warm.reconfig_time,
        100.0 * warm.reconfig_time.as_ps() as f64 / cold.reconfig_time.as_ps().max(1) as f64,
        cold.icap_words,
        warm.icap_words,
        100.0 * warm.icap_words as f64 / cold.icap_words.max(1) as f64,
        warm.stats.cache_hits
    );

    // ------------------------------------------------------------------
    // Claim 2 — a two-slot floorplan turns repeat loads into dock
    // re-activations. Same two slot-sized kernels, same alternation;
    // only the floorplan differs. (Other plane features stay off so the
    // comparison isolates the sub-slots.)
    // ------------------------------------------------------------------
    let slot_kernels = [Kernel::Jenkins, Kernel::Brightness];
    let slot_width = kind.region().width() / 2;
    eprintln!("[config] {loads} alternating loads through one region-wide slot...");
    let single = alternating_loads(
        kind,
        ConfigPlaneConfig::default(),
        Some(slot_width),
        &slot_kernels,
        loads,
        Tracer::disabled(),
    );
    eprintln!("[config] {loads} alternating loads across two {slot_width}-column sub-slots...");
    let multi = alternating_loads(
        kind,
        ConfigPlaneConfig {
            slot_widths: vec![slot_width, slot_width],
            ..ConfigPlaneConfig::default()
        },
        Some(slot_width),
        &slot_kernels,
        loads,
        tracer.with_shard(2),
    );
    assert!(
        multi.reconfigurations < single.reconfigurations,
        "co-residency must need fewer full swaps: {} vs {}",
        multi.reconfigurations,
        single.reconfigurations
    );
    assert_eq!(
        multi.reconfigurations as usize,
        slot_kernels.len(),
        "each kernel configures its sub-slot exactly once"
    );
    assert_eq!(
        multi.stats.activations as usize,
        loads - slot_kernels.len(),
        "every repeat load is a zero-ICAP re-activation"
    );
    assert!(multi.icap_words < single.icap_words);
    eprintln!(
        "[config]   full swaps {} -> {}, {} activations",
        single.reconfigurations, multi.reconfigurations, multi.stats.activations
    );

    // A third slot-sized kernel forces LRU eviction in the two-slot plan,
    // putting the slot-evict instant into the journal as well.
    let evict = alternating_loads(
        kind,
        ConfigPlaneConfig {
            slot_widths: vec![slot_width, slot_width],
            ..ConfigPlaneConfig::default()
        },
        Some(slot_width),
        &[Kernel::Jenkins, Kernel::Brightness, Kernel::Blend],
        3,
        tracer.with_shard(3),
    );
    assert_eq!(evict.stats.slot_evictions, 1, "third tenant displaces one");

    // ------------------------------------------------------------------
    // Claim 3 — the service-level win, plus determinism. The warm run is
    // journaled; the rerun is not, and tracing must not change a byte.
    // ------------------------------------------------------------------
    let round = service_round(seed);
    eprintln!("[config] service: {rounds} repeated-swap rounds, plane off...");
    let svc_cold = run_service(
        ConfigPlaneConfig::default(),
        rounds,
        &round,
        Tracer::disabled(),
        rtr_telemetry::Telemetry::disabled(),
    );
    eprintln!("[config] service: {rounds} repeated-swap rounds, plane on...");
    let svc_warm = run_service(
        ConfigPlaneConfig::full(),
        rounds,
        &round,
        tracer.with_shard(0),
        telemetry.with_shard(0),
    );
    assert!(svc_cold.plane.is_none(), "plane off exports no counters");
    let plane_stats = svc_warm.plane.expect("plane on exports counters");
    assert!(svc_cold.swaps >= 1 && svc_warm.swaps >= 1);
    // Cheap swaps change the cost model's decisions (that is the point),
    // so the robust cross-run comparison is the mean cost per swap.
    let mean_swap = |s: &MetricsSnapshot| s.reconfig_time.as_ps() / s.swaps;
    assert!(
        mean_swap(&svc_warm) < mean_swap(&svc_cold),
        "the plane must shrink the mean swap cost: {} vs {}",
        mean_swap(&svc_warm),
        mean_swap(&svc_cold)
    );
    assert!(plane_stats.words_sent < plane_stats.words_full);
    let rerun = run_service(
        ConfigPlaneConfig::full(),
        rounds,
        &round,
        Tracer::disabled(),
        rtr_telemetry::Telemetry::disabled(),
    );
    assert_eq!(
        rerun.to_json().render(),
        svc_warm.to_json().render(),
        "equal seeds must give byte-identical results"
    );
    eprintln!(
        "[config]   mean swap {} -> {} ps, diff ratio {:.3}, {} cache hits",
        mean_swap(&svc_cold),
        mean_swap(&svc_warm),
        plane_stats.diff_ratio(),
        plane_stats.cache_hits
    );

    // ------------------------------------------------------------------
    // Claim 4 — every feature off is the pre-plane service, bit for bit.
    // ------------------------------------------------------------------
    let baseline = run_service(
        ConfigPlaneConfig::default(),
        1,
        &round,
        Tracer::disabled(),
        rtr_telemetry::Telemetry::disabled(),
    );
    let mut svc = Service::new(ServiceConfig {
        kernels: vec![Kernel::PatMatch, Kernel::Fade],
        batch: BatchPolicy::FcfsDrain,
        plane: ConfigPlaneConfig::default(),
        ..ServiceConfig::new(kind)
    });
    svc.process(&round).expect("sorted schedule");
    let explicit = svc.lifetime();
    assert_eq!(
        explicit.to_json().render(),
        baseline.to_json().render(),
        "plane-off FCFS must match the default service byte for byte"
    );
    assert!(
        !baseline.to_json().render().contains("\"configplane\""),
        "the off state must not grow a configplane section"
    );

    let summary = Json::obj().field(
        "config_scenario",
        Json::obj()
            .field("system", format!("{kind:?}"))
            .field("swaps", loads)
            .field("rounds", rounds)
            .field("seed", seed)
            .field("claims", Json::obj().field("plane_beats_baseline", true))
            .field(
                "differential",
                Json::obj()
                    .field("cold_reconfig_us", cold.reconfig_time.as_us_f64())
                    .field("warm_reconfig_us", warm.reconfig_time.as_us_f64())
                    .field("cold_icap_words", cold.icap_words)
                    .field("warm_icap_words", warm.icap_words)
                    .field(
                        "word_ratio",
                        warm.icap_words as f64 / cold.icap_words.max(1) as f64,
                    )
                    .field("cache_hits", warm.stats.cache_hits)
                    .field("diff_ratio", warm.stats.diff_ratio()),
            )
            .field(
                "multi_module",
                Json::obj()
                    .field("single_full_swaps", single.reconfigurations)
                    .field("multi_full_swaps", multi.reconfigurations)
                    .field("activations", multi.stats.activations)
                    .field("slot_evictions", evict.stats.slot_evictions),
            )
            .field(
                "service",
                Json::obj()
                    .field("cold_mean_swap_ps", mean_swap(&svc_cold))
                    .field("warm_mean_swap_ps", mean_swap(&svc_warm))
                    .field(
                        "mean_swap_ratio",
                        mean_swap(&svc_warm) as f64 / mean_swap(&svc_cold).max(1) as f64,
                    )
                    .field("cold", svc_cold.to_json())
                    .field("warm", svc_warm.to_json()),
            ),
    );
    scenario::emit("config", json_path.as_deref(), &summary);
    scenario::export("config", &args, &tracer, &telemetry);
}
