//! Sweeps configuration-plane corruption rates across both systems and
//! emits a machine-readable JSON summary of throughput, latency and the
//! fault-tolerance counters — the resilience counterpart of
//! `service_scenario`.
//!
//! ```text
//! fault_scenario                    # both systems, rates {0, 1e-3, 1e-2}
//! fault_scenario --requests 96      # heavier run
//! fault_scenario --json out.json    # write the summary to a file
//! ```

use rtr_apps::request::Kernel;
use rtr_bench::scenario::{self, ScenarioArgs};
use rtr_core::SystemKind;
use rtr_service::{
    BurstConfig, ConfigPlaneConfig, MetricsSnapshot, RetryPolicy, ScrubPolicy, Service,
    ServiceConfig, TrafficConfig,
};
use vp2_sim::{Json, SimTime};

/// Corruption rates the paper-style comparison sweeps.
const RATES: [f64; 3] = [0.0, 1e-3, 1e-2];

fn main() {
    let args = ScenarioArgs::parse();
    let requests: usize = args.parsed_or("--requests", 48);
    let seed: u64 = args.parsed_or("--seed", 0x0007_AF1C_2026);
    let json_path = args.json_path();
    // One journal across the whole sweep: run (system, rate) is journaled
    // as shard `system × rates + rate_index`, so the trace shows the
    // fault plane's verify/repair ladder at every corruption level.
    // Telemetry samples the same runs into the same shard-id space.
    let tracer = args.tracer();
    let telemetry = args.telemetry();

    let mut systems = Vec::new();
    for (sys_index, kind) in [SystemKind::Bit32, SystemKind::Bit64]
        .into_iter()
        .enumerate()
    {
        let traffic = TrafficConfig {
            seed,
            requests,
            kernels: Vec::new(),
            mean_gap: SimTime::from_us(20),
            burst_percent: 75,
            min_payload: 256,
            max_payload: 2048,
            ..TrafficConfig::default()
        }
        .generate();

        let mut sweeps = Vec::new();
        let mut clean_elapsed = None;
        for (rate_index, rate) in RATES.into_iter().enumerate() {
            eprintln!("[fault] {kind:?} / rate {rate}: {requests} requests...");
            let shard = (sys_index * RATES.len() + rate_index) as u32;
            let mut svc = Service::new(ServiceConfig {
                trace: tracer.with_shard(shard),
                telemetry: telemetry.with_shard(shard),
                ..ServiceConfig::with_faults(kind, rate, seed ^ 0xFA17)
            });
            let snap = svc.process(&traffic).expect("generated traffic is sorted");
            assert_eq!(snap.completed as usize, requests, "all requests served");
            assert_eq!(snap.verify_failures, 0, "responses must verify at any rate");
            if rate == 0.0 {
                clean_elapsed = Some(snap.elapsed);
            }
            let slowdown = clean_elapsed
                .map(|clean| snap.elapsed.as_ps() as f64 / clean.as_ps().max(1) as f64)
                .unwrap_or(1.0);
            sweeps.push(
                Json::obj()
                    .field("corruption_rate", rate)
                    .field("slowdown_vs_clean", slowdown)
                    .field("metrics", snap.to_json()),
            );
        }

        systems.push(
            Json::obj()
                .field("system", format!("{kind:?}"))
                .field("requests", requests)
                .field("seed", seed)
                .field("rates", Json::Arr(sweeps)),
        );
    }

    // ---- burst × scrub × canary sweep -------------------------------
    // Correlated ambient upsets (seeded Markov on/off bursts) against
    // the 64-bit system with the differential configuration plane on:
    // latent upsets inflate every diff, so background scrubbing has
    // something to earn back, and persistent bursts drive the quarantine
    // machinery hard enough to compare canary readmission against the
    // fixed-cooldown exit.
    let b_requests: usize = args.parsed_or("--burst-requests", 480);
    let upsets_per_us: f64 = args.parsed_or("--burst-upsets-per-us", 4.0);
    // Two hardware-strong kernels with payloads deep past the break-even
    // depth: nearly every kernel change swaps the region, so the load
    // ladder — the only path bursts can attack — runs constantly. The
    // arrival gap is sized against the ~10 ms full-region feed so batches
    // stay a handful of items instead of coalescing into one giant drain.
    let b_traffic = TrafficConfig {
        seed,
        requests: b_requests,
        kernels: vec![Kernel::Fade, Kernel::Blend],
        mean_gap: SimTime::from_us(1_000),
        burst_percent: 40,
        min_payload: 8192,
        max_payload: 16384,
        ..TrafficConfig::default()
    }
    .generate();
    // Ambient cadence for the scrub pair, sized against the load ladder:
    // quiet stretches are long enough that a *scrubbed* region's short
    // differential feed often completes untouched, while the no-scrub
    // run's larger diffs (latent upsets inflate every frame window)
    // seldom fit in a gap.
    let ambient = BurstConfig {
        mean_gap: SimTime::from_us(12_000),
        mean_burst: SimTime::from_us(2_000),
        window: 96,
        max_bits: 2,
        ..BurstConfig::new(seed ^ 0xB0B5, upsets_per_us)
    };
    // Storm cadence for the canary pair: bursts recur faster than any
    // feed window, so degraded loads pile into strikes and the quarantine
    // exit strategy — verified probe versus worst-case wait — is what
    // separates the runs.
    let storm = BurstConfig {
        mean_gap: SimTime::from_us(1_600),
        mean_burst: SimTime::from_us(400),
        window: 96,
        max_bits: 2,
        ..BurstConfig::new(seed ^ 0xB0B5, upsets_per_us)
    };
    // A full sweep of the ~976-frame region every ~6 ms — well inside the
    // inter-swap interval, so a scrubbed region carries only the last few
    // milliseconds of upsets into the next differential load.
    let scrub = ScrubPolicy {
        period: SimTime::from_us(1_500),
        frames_per_pass: 244,
    };
    // One full feed, one targeted repair pass, then degrade: the bench
    // models an impatient platform so the degraded-load counter is a
    // sensitive probe of how dirty the region was when the load started.
    let retry = RetryPolicy {
        max_attempts: 1,
        max_repairs_per_attempt: 1,
        backoff: SimTime::from_us(50),
    };
    // The canary runs probe their way back after a short base cooldown
    // (backoff doubles it per failed probe, up to the cap); the fixed-
    // cooldown run models the conservative alternative — no verified
    // probe gate, so the cooldown must be sized for the worst burst,
    // i.e. the same value the canary only ever backs off *to*.
    let base_cooldown = SimTime::from_ms(5);
    let cooldown_cap = SimTime::from_ms(400);
    let shard_base = (2 * RATES.len()) as u32;
    let run = |label: &str,
               shard: u32,
               burst: Option<BurstConfig>,
               scrub: Option<ScrubPolicy>,
               canary: bool,
               cooldown: SimTime,
               cap: SimTime|
     -> MetricsSnapshot {
        eprintln!("[fault] burst sweep / {label}: {b_requests} requests...");
        let mut svc = Service::new(ServiceConfig {
            plane: ConfigPlaneConfig {
                cache_capacity: 16,
                differential: true,
                compress: false,
                slot_widths: Vec::new(),
            },
            quarantine_cooldown: cooldown,
            quarantine_cooldown_cap: cap,
            canary,
            burst,
            retry,
            scrub,
            trace: tracer.with_shard(shard_base + shard),
            telemetry: telemetry.with_shard(shard_base + shard),
            ..ServiceConfig::new(SystemKind::Bit64)
        });
        let snap = svc
            .process(&b_traffic)
            .expect("generated traffic is sorted");
        assert_eq!(snap.completed as usize, b_requests, "all requests served");
        assert_eq!(
            snap.verify_failures, 0,
            "responses must verify under bursts"
        );
        snap
    };
    // The scrub pair runs with a near-inert quarantine (tiny cooldown and
    // cap) so load attempts keep flowing all run long: the degraded-load
    // counters then measure how dirty the region was at each load, not
    // how long the quarantine suppressed loading.
    let probe_cooldown = SimTime::from_ms(1);
    let probe_cap = SimTime::from_ms(4);
    let noscrub = run(
        "ambient burst, no scrub",
        0,
        Some(ambient),
        None,
        true,
        probe_cooldown,
        probe_cap,
    );
    let scrubbed = run(
        "ambient burst, scrub",
        1,
        Some(ambient),
        Some(scrub),
        true,
        probe_cooldown,
        probe_cap,
    );
    // The canary pair compares quarantine-exit strategies under the same
    // storm: verified probes from a short base cooldown versus riding out
    // the full worst-case cooldown on every entry.
    let canary_run = run(
        "storm burst, canary exit",
        2,
        Some(storm),
        None,
        true,
        base_cooldown,
        cooldown_cap,
    );
    let fixed = run(
        "storm burst, fixed cooldown exit",
        3,
        Some(storm),
        None,
        false,
        cooldown_cap,
        cooldown_cap,
    );
    // The inert-plan identity: a rate-0 burst plan with scrubbing off
    // must leave no trace at all — byte-identical JSON to a run with no
    // plan installed.
    let plain = run(
        "no burst (identity reference)",
        4,
        None,
        None,
        true,
        base_cooldown,
        cooldown_cap,
    );
    let zero = run(
        "rate-0 burst (identity probe)",
        5,
        Some(BurstConfig::new(seed ^ 0xB0B5, 0.0)),
        None,
        true,
        base_cooldown,
        cooldown_cap,
    );
    let rate0_identical = plain.to_json().render() == zero.to_json().render();

    let claim_scrub = scrubbed.degraded_loads < noscrub.degraded_loads;
    let claim_canary = canary_run.quarantined_batches < fixed.quarantined_batches;
    eprintln!(
        "[fault] degraded loads: scrub {} vs no-scrub {} | quarantined batches: \
         canary {} vs fixed {} | rate-0 identical: {rate0_identical}",
        scrubbed.degraded_loads,
        noscrub.degraded_loads,
        canary_run.quarantined_batches,
        fixed.quarantined_batches
    );
    let burst_runs = [
        ("burst_noscrub", &noscrub),
        ("burst_scrub", &scrubbed),
        ("burst_canary_exit", &canary_run),
        ("burst_fixed_exit", &fixed),
    ]
    .into_iter()
    .map(|(label, snap)| {
        Json::obj()
            .field("config", label)
            .field("metrics", snap.to_json())
    })
    .collect();
    let summary = Json::obj()
        .field("fault_scenarios", Json::Arr(systems))
        .field(
            "burst_sweep",
            Json::obj()
                .field("system", "Bit64")
                .field("requests", b_requests)
                .field("seed", seed)
                .field("upsets_per_us", upsets_per_us)
                .field("runs", Json::Arr(burst_runs))
                .field(
                    "claims",
                    Json::obj()
                        .field("scrub_beats_noscrub", claim_scrub)
                        .field("canary_beats_fixed", claim_canary)
                        .field("rate0_identical", rate0_identical),
                ),
        );
    scenario::emit("fault", json_path.as_deref(), &summary);
    scenario::export("fault", &args, &tracer, &telemetry);
    assert!(rate0_identical, "a rate-0 burst plan must leave no trace");
    assert!(
        claim_scrub,
        "scrubbing must keep degraded loads below the no-scrub run \
         ({} vs {})",
        scrubbed.degraded_loads, noscrub.degraded_loads
    );
    assert!(
        claim_canary,
        "canary readmission must hold fewer batches in quarantine than \
         the fixed cooldown ({} vs {})",
        canary_run.quarantined_batches, fixed.quarantined_batches
    );
}
