//! The traced run: per-layer host cost by replay.
//!
//! An untraced pass measures the serve CPU time the layers must account
//! for. A traced pass over the same inputs journals every decision the system
//! took. The replay then re-executes those decisions one layer at a time
//! through each layer's public entry point, timing every call from
//! outside the program:
//!
//! * each `RequestComplete { id, hw }` becomes `Driver::run_sw`, or
//!   `harness::bind` followed by `Driver::run_hw`, on a fresh
//!   `build_system` + `Driver::preload_all` machine of the same kind;
//! * each request's answer is recomputed once with `Request::reference`
//!   and must equal the replayed response;
//! * the `SwapBegin { module }` sequence is fed to `ModuleManager::load`
//!   on a fresh manager with the same configuration plane;
//! * module registration and driver preload are timed once per machine,
//!   `CostModel::calibrate` and a whole `Service::new` once per machine
//!   kind.
//!
//! What the replayed layers do not cover (scheduling, queues, metrics,
//! worker-pool hand-offs, fault materialisation, scrub ticks) is the
//! residual. The replay also
//! reconciles its call counts with the snapshot, which catches a journal
//! that lost or misattributed events.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use rtr_apps::harness;
use rtr_apps::request::{component_for, factory_for, Driver, Kernel, Request};
use rtr_core::{build_system, Machine, ModuleManager, SystemKind};
use rtr_service::{CostModel, Service, ServiceConfig};
use rtr_trace::{EventKind, TraceEvent, Tracer, FEDERATION_SHARD};
use vp2_sim::SimTime;

use crate::metrics::PER_LAYER;
use crate::workload::{pass, Outcome, System, Workload};

/// Host time and call count of one replayed layer.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    calls: u64,
    time: Duration,
}

impl Layer {
    /// Mean host time per call, in units of `scale` seconds (0 without
    /// calls).
    fn per_call(&self, scale: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.time.as_secs_f64() / self.calls as f64 / scale
        }
    }
}

/// Runs `f` as one call of `layer`.
fn timed<R>(layer: &mut Layer, f: impl FnOnce() -> R) -> R {
    timed_as(layer, 1, f)
}

/// Runs `f` once and books it as `calls` calls of `layer`, each as long.
fn timed_as<R>(layer: &mut Layer, calls: u32, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    layer.time += start.elapsed() * calls;
    layer.calls += u64::from(calls);
    result
}

/// The boot pieces, summed over every machine.
#[derive(Debug, Default)]
struct Boot {
    calibrate: Layer,
    register: Layer,
    preload: Layer,
    service: Layer,
}

/// A fresh machine, manager and driver to replay one machine's journal on.
struct Bench {
    manager: ModuleManager,
    machine: Machine,
    driver: Driver,
}

/// The kernels a machine booted with `config` serves.
fn kernels(config: &ServiceConfig) -> Vec<Kernel> {
    if config.kernels.is_empty() {
        Kernel::ALL.to_vec()
    } else {
        config.kernels.clone()
    }
}

/// Times `CostModel::calibrate` and a whole `Service::new` for `config`
/// once, booked as `boots` boots.
fn time_boot(config: &ServiceConfig, boots: u32, boot: &mut Boot) {
    timed_as(&mut boot.calibrate, boots, || {
        CostModel::calibrate(config.kind, &kernels(config))
    });
    drop(timed_as(&mut boot.service, boots, || {
        Service::new(config.clone())
    }));
}

/// Builds the replay platform for a machine booted with `config`, timing
/// module registration and driver preload.
fn platform(config: &ServiceConfig, boot: &mut Boot) -> Bench {
    let kernels = kernels(config);
    let manager = timed(&mut boot.register, || {
        let mut manager = ModuleManager::new(config.kind);
        manager
            .configure_plane(config.plane.clone())
            .expect("workload planes are valid");
        for &kernel in &kernels {
            if let Some(component) = component_for(kernel, config.kind) {
                manager
                    .register(component, (0, 0), factory_for(kernel))
                    .expect("kernel components register");
            }
        }
        manager
    });
    let mut machine = build_system(config.kind);
    let driver = timed(&mut boot.preload, || {
        let mut driver = Driver::new();
        driver.preload_all(&mut machine);
        driver
    });
    Bench {
        manager,
        machine,
        driver,
    }
}

/// One machine's journaled decisions, in emission order.
#[derive(Debug, Default)]
struct Journal {
    /// `(id, kernel, machine-clock arrival)` per admitted request.
    admits: Vec<(u64, &'static str, SimTime)>,
    /// `(id, served in hardware)` per completed request.
    completes: Vec<(u64, bool)>,
    /// Module of every load the manager started.
    loads: Vec<String>,
    /// Words the HWICAP committed to the ICAP.
    icap_words: u64,
}

/// Runs every request whose kernel has hardware on `kind` through
/// `Driver::run_hw` on a fresh machine, kernel by kernel. Returns the timed
/// calls and how many responses differ from the reference.
fn probe_hw(kind: SystemKind, schedule: &[(SimTime, Request)]) -> (Layer, u64) {
    let mut machine = build_system(kind);
    let mut driver = Driver::new();
    driver.preload_all(&mut machine);
    let (mut layer, mut mismatches) = (Layer::default(), 0);
    for kernel in Kernel::ALL {
        if component_for(kernel, kind).is_none() {
            continue;
        }
        harness::bind(&mut machine, factory_for(kernel)());
        for (_, request) in schedule.iter().filter(|(_, r)| r.kernel() == kernel) {
            let (_, response) = timed(&mut layer, || driver.run_hw(&mut machine, request));
            mismatches += u64::from(response != request.reference());
        }
    }
    (layer, mismatches)
}

/// Splits the merged journal into per-machine journals (the federation's
/// own routing journal is not a machine).
fn journals(events: Vec<TraceEvent>) -> BTreeMap<u32, Journal> {
    let mut by_shard: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for event in events {
        if event.shard != FEDERATION_SHARD {
            by_shard.entry(event.shard).or_default().push(event);
        }
    }
    by_shard
        .into_iter()
        .map(|(shard, mut events)| {
            // The merged view orders by time first; emission order is seq.
            events.sort_by_key(|e| e.seq);
            let mut journal = Journal::default();
            for event in events {
                match event.kind {
                    EventKind::RequestAdmit {
                        id,
                        kernel,
                        arrival,
                    } => journal.admits.push((id, kernel, arrival)),
                    EventKind::RequestComplete { id, hw, .. } => journal.completes.push((id, hw)),
                    EventKind::SwapBegin { module } => journal.loads.push(module),
                    EventKind::IcapBurst { words, .. } => journal.icap_words += u64::from(words),
                    _ => {}
                }
            }
            (shard, journal)
        })
        .collect()
}

/// Everything one traced run measured.
pub struct TracedRun {
    /// Requests per pass.
    pub requests: u64,
    /// Failed requests over both passes.
    pub failures: u64,
    /// Digest of the untraced pass (the traced one must equal it).
    pub digest: u64,
    /// Reconciliation failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Serves the schedule on a traced system. The fleet is driven through
/// `Federation::admit` per request and then `flush_all`, each timed (the
/// pair is exactly what `Federation::run` does).
fn traced_serve(
    system: &mut System,
    schedule: &[(SimTime, Request)],
) -> (Duration, Outcome, Option<(Duration, Duration)>) {
    let System::Federation(fed) = system else {
        let (serve, outcome) = system.serve(schedule);
        return (serve, outcome, None);
    };
    let input = schedule.to_vec();
    let start = Instant::now();
    for (arrival, request) in input {
        fed.admit(arrival, request);
    }
    let admit = start.elapsed();
    let flush_start = Instant::now();
    fed.flush_all();
    let flush = flush_start.elapsed();
    let snap = fed.snapshot();
    let serve = start.elapsed();
    (
        serve,
        Outcome::federation(schedule.len(), snap),
        Some((admit, flush)),
    )
}

/// Worker threads of the fleet in both passes of the traced run, so the
/// per-layer numbers cover the worker-pool path (flushes shipped to the
/// pool, joins before routing decisions) that the end-to-end runs, inline
/// for steadiness, leave out.
const TRACED_THREADS: usize = 2;

/// The untraced pass, the traced pass and the replay of `workload`.
pub fn traced_run(workload: Workload, seed: u64, schedule: &[(SimTime, Request)]) -> TracedRun {
    let untraced = pass(workload, seed, schedule, TRACED_THREADS);
    let tracer = Tracer::enabled();
    let mut system = workload.boot(seed, tracer.clone(), TRACED_THREADS);
    let origins: HashMap<u32, SimTime> = system.origins().into_iter().collect();
    let (traced_serve_time, traced, fed_split) = traced_serve(&mut system, schedule);
    drop(system);
    let mut problems = Vec::new();
    if tracer.dropped() > 0 {
        problems.push(format!(
            "the journal ring dropped {} events",
            tracer.dropped()
        ));
    }
    if traced.digest != untraced.outcome.digest {
        problems.push("tracing changed the simulated output".to_string());
    }
    let events = tracer.events();
    let event_count = events.len();
    let journals = journals(events);

    // Requests by (stream arrival, kernel), in schedule order: a machine
    // admits a request at its boot origin plus the stream arrival.
    let mut by_arrival: HashMap<(SimTime, &'static str), VecDeque<usize>> = HashMap::new();
    for (index, (arrival, request)) in schedule.iter().enumerate() {
        by_arrival
            .entry((*arrival, request.kernel().module_name()))
            .or_default()
            .push_back(index);
    }

    let mut boot = Boot::default();
    let (mut sw, mut hw, mut reference, mut load) = (
        Layer::default(),
        Layer::default(),
        Layer::default(),
        Layer::default(),
    );
    let (mut retired, mut icap_words, mut mismatches) = (0u64, 0u64, 0u64);
    let machines = workload.machines(seed);
    // Machines of one kind boot alike (the fleet's shards differ only in
    // kind), so calibration and a whole boot are timed once per kind.
    for (i, (_, config)) in machines.iter().enumerate() {
        if machines[..i].iter().all(|(_, c)| c.kind != config.kind) {
            let boots = machines.iter().filter(|(_, c)| c.kind == config.kind);
            time_boot(config, boots.count() as u32, &mut boot);
        }
    }
    for (shard, config) in &machines {
        let mut bench = platform(config, &mut boot);
        let Some(journal) = journals.get(shard) else {
            problems.push(format!("machine {shard} journaled nothing"));
            continue;
        };
        let origin = origins[shard];
        let mut index = HashMap::new();
        for &(id, kernel, arrival) in &journal.admits {
            match by_arrival
                .get_mut(&(arrival.saturating_sub(origin), kernel))
                .and_then(VecDeque::pop_front)
            {
                Some(i) => {
                    index.insert(id, i);
                }
                None => problems.push(format!(
                    "machine {shard} admitted request {id} ({kernel}) absent from the schedule"
                )),
            }
        }
        for module in &journal.loads {
            timed(&mut load, || bench.manager.load(&mut bench.machine, module))
                .unwrap_or_else(|e| panic!("replayed load of {module}: {e}"));
        }
        icap_words += journal.icap_words;
        let retired_before = bench.machine.cpu.stats.retired;
        let mut bound = None;
        for &(id, on_hw) in &journal.completes {
            let Some(&i) = index.get(&id) else {
                problems.push(format!("machine {shard} completed unknown request {id}"));
                continue;
            };
            let request = &schedule[i].1;
            let kernel = request.kernel();
            let (_, response) = if on_hw {
                if bound != Some(kernel) {
                    harness::bind(&mut bench.machine, factory_for(kernel)());
                    bound = Some(kernel);
                }
                timed(&mut hw, || bench.driver.run_hw(&mut bench.machine, request))
            } else {
                timed(&mut sw, || bench.driver.run_sw(&mut bench.machine, request))
            };
            if response != timed(&mut reference, || request.reference()) {
                mismatches += 1;
            }
        }
        retired += bench.machine.cpu.stats.retired - retired_before;
    }
    // The hardware path's per-call time is measured on every workload:
    // where nothing was served in hardware (`sw_interp`), the requests are
    // run through it once on the side, outside the reconciliation.
    let hw_per_call = if hw.calls > 0 {
        hw
    } else {
        let (probe, wrong) = probe_hw(machines[0].1.kind, schedule);
        mismatches += wrong;
        probe
    };

    let total = &traced.total;
    let expected_loads = total.swaps + total.degraded_loads + machines.len() as u64;
    for (what, replayed, snapshot) in [
        ("software items", sw.calls, total.sw_items),
        ("hardware items", hw.calls, total.hw_items),
        (
            "loads (swaps + degraded + warm-ups)",
            load.calls,
            expected_loads,
        ),
    ] {
        if replayed != snapshot {
            problems.push(format!(
                "replayed {replayed} {what}, the snapshot says {snapshot}"
            ));
        }
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} replayed responses differ from the reference"
        ));
    }

    // Shares are of the serve's CPU time over all threads, so that they
    // total 100% on the threaded fleet too.
    let serve_cpu_s = untraced.serve_cpu.as_secs_f64();
    let share = |layer: &Layer| 100.0 * layer.time.as_secs_f64() / serve_cpu_s;
    let residual = 100.0 - share(&sw) - share(&hw) - share(&reference) - share(&load);
    print_reconciliation(
        workload,
        untraced.serve_cpu,
        [
            ("ppc.run_sw", &sw),
            ("dock.run_hw", &hw),
            ("apps.reference", &reference),
            ("core.load", &load),
        ],
    );

    let requests = schedule.len() as f64;
    let n = machines.len() as f64;
    let ms_per_boot = |layer: &Layer| layer.per_call(1e-3);
    let boot_other = ms_per_boot(&boot.service)
        - ms_per_boot(&boot.calibrate)
        - ms_per_boot(&boot.register)
        - ms_per_boot(&boot.preload);
    let replay_s = (sw.time + hw.time).as_secs_f64();
    let (admit, flush) = fed_split.unwrap_or_default();
    let plane = total.plane;
    let fed = traced.federation.as_ref();
    let metrics = vec![
        ("service.calibrate_ms", ms_per_boot(&boot.calibrate)),
        ("core.register_ms", ms_per_boot(&boot.register)),
        ("apps.preload_ms", ms_per_boot(&boot.preload)),
        ("service.boot_ms", ms_per_boot(&boot.service)),
        ("service.boot_other_ms", boot_other),
        // A single service is a one-shard system.
        (
            "federation.boot_ms_per_shard",
            untraced.setup.as_secs_f64() * 1e3 / n,
        ),
        ("ppc.run_sw_us", sw.per_call(1e-6)),
        ("ppc.minstr_per_host_s", retired as f64 / replay_s / 1e6),
        ("dock.run_hw_us", hw_per_call.per_call(1e-6)),
        ("apps.reference_us", reference.per_call(1e-6)),
        ("core.load_ms", load.per_call(1e-3)),
        ("ppc.run_sw_pct", share(&sw)),
        ("dock.run_hw_pct", share(&hw)),
        ("apps.reference_pct", share(&reference)),
        ("core.load_pct", share(&load)),
        ("service.residual_pct", residual),
        ("federation.admit_us", admit.as_secs_f64() * 1e6 / requests),
        ("federation.flush_all_ms", flush.as_secs_f64() * 1e3),
        (
            "federation.admit_pct",
            if fed_split.is_some() {
                100.0 * admit.as_secs_f64() / (admit + flush).as_secs_f64()
            } else {
                0.0
            },
        ),
        (
            "trace.overhead_pct",
            100.0 * (traced_serve_time.as_secs_f64() / untraced.serve.as_secs_f64() - 1.0),
        ),
        ("service.hw_items", total.hw_items as f64),
        ("service.sw_items", total.sw_items as f64),
        ("service.swaps", total.swaps as f64),
        (
            "service.batches",
            (total.hw_batches + total.sw_batches) as f64,
        ),
        ("ppc.instr_per_req", retired as f64 / requests),
        ("trace.events_per_req", event_count as f64 / requests),
        (
            "core.icap_words_per_swap",
            icap_words as f64 / load.calls.max(1) as f64,
        ),
        (
            "configplane.words_sent_frac",
            plane.map_or(1.0, |p| p.words_sent as f64 / p.words_full.max(1) as f64),
        ),
        (
            "configplane.cache_hit_frac",
            plane.map_or(0.0, |p| {
                p.cache_hits as f64 / (p.cache_hits + p.cache_misses).max(1) as f64
            }),
        ),
        ("core.load_retries", total.load_retries as f64),
        ("core.repaired_frames", total.repaired_frames as f64),
        (
            "core.scrub_frames",
            total.scrub.map_or(0.0, |s| s.frames_scrubbed as f64),
        ),
        (
            "federation.steals",
            fed.map_or(0.0, |f| f.steal_events as f64),
        ),
        ("federation.sheds", fed.map_or(0.0, |f| f.sheds as f64)),
        (
            "cluster.peak_buffered",
            fed.map_or(0.0, |f| {
                f.pools
                    .iter()
                    .map(|p| p.cluster.peak_buffered)
                    .max()
                    .unwrap_or(0) as f64
            }),
        ),
    ];
    debug_assert!(metrics
        .iter()
        .map(|(name, _)| *name)
        .eq(PER_LAYER.iter().map(|(name, _)| *name)));
    TracedRun {
        requests: schedule.len() as u64,
        failures: untraced.outcome.failures() + traced.failures(),
        digest: untraced.outcome.digest,
        problems,
        metrics,
    }
}

/// Prints how the replayed layers split the untraced serve's CPU time.
fn print_reconciliation(workload: Workload, serve_cpu: Duration, layers: [(&str, &Layer); 4]) {
    let serve_ms = serve_cpu.as_secs_f64() * 1e3;
    eprintln!(
        "[benchmark] {}: untraced serve CPU time {serve_ms:.1} ms, by replayed layer",
        workload.name()
    );
    eprintln!(
        "  {:<20} {:>8} {:>12} {:>8}",
        "layer", "calls", "host ms", "share"
    );
    let mut residual_ms = serve_ms;
    for (name, layer) in layers {
        let ms = layer.time.as_secs_f64() * 1e3;
        residual_ms -= ms;
        eprintln!(
            "  {name:<20} {:>8} {ms:>12.1} {:>7.1}%",
            layer.calls,
            100.0 * ms / serve_ms
        );
    }
    for (name, ms) in [("residual", residual_ms), ("total", serve_ms)] {
        eprintln!(
            "  {name:<20} {:>8} {ms:>12.1} {:>7.1}%",
            "",
            100.0 * ms / serve_ms
        );
    }
}
