//! The four workloads: the inputs each generates from its seed, the
//! system each boots cold, and one timed pass (boot, then serve) over it.

use std::time::{Duration, Instant};

use rtr_apps::request::{Kernel, Request};
use rtr_cluster::{ClusterConfig, RoutePolicy, ShardSpec};
use rtr_core::SystemKind;
use rtr_federation::{FedPolicy, Federation, FederationConfig, FederationSnapshot, POOL_STRIDE};
use rtr_service::{
    BatchPolicy, BurstConfig, ConfigPlaneConfig, FlashCrowd, MetricsSnapshot, Policy, ScrubPolicy,
    Service, ServiceConfig, TrafficConfig,
};
use rtr_trace::Tracer;
use vp2_sim::{SimTime, SplitMix64};

use crate::meter;
use crate::stats::{fnv1a64, process_cpu};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x0007_AF1C_2026;

/// An arrival schedule: `(arrival, request)` pairs sorted by arrival.
pub type Schedule = Vec<(SimTime, Request)>;

/// One benchmark workload. Every workload is an open loop in simulated
/// time and boots cold: an empty ICAP bitstream cache, and a dock holding
/// only the warm-up module `Service::new` loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's PPC405 software baseline: all serve time is
    /// interpretation, and nothing touches the ICAP.
    SwInterp,
    /// Small mixed requests near capacity, where fixed per-request costs
    /// dominate and software, hardware and swaps all take a share.
    ServiceMix,
    /// The paper's own subject: the hardware path through the dock and
    /// DMA, with cached and differential loads, readback repair and
    /// scrubbing under correlated upsets.
    HwFaults,
    /// Eight machines in three heterogeneous pools: routing, shedding,
    /// stealing, and eight boots.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SwInterp,
        Workload::ServiceMix,
        Workload::HwFaults,
        Workload::Fleet,
    ];

    /// Stable name (command line, results).
    pub fn name(self) -> &'static str {
        match self {
            Workload::SwInterp => "sw_interp",
            Workload::ServiceMix => "service_mix",
            Workload::HwFaults => "hw_faults",
            Workload::Fleet => "fleet",
        }
    }

    /// The workload with this name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The traffic shape every seed's schedule is drawn from.
    fn traffic(self) -> TrafficConfig {
        let base = TrafficConfig {
            seed: DEFAULT_SEED,
            ..TrafficConfig::default()
        };
        match self {
            Workload::SwInterp => TrafficConfig {
                requests: 1000,
                mean_gap: SimTime::from_ms(6),
                burst_percent: 75,
                min_payload: 64,
                max_payload: 512,
                ..base
            },
            Workload::ServiceMix => TrafficConfig {
                requests: 6000,
                mean_gap: SimTime::from_us(220),
                burst_percent: 75,
                min_payload: 256,
                max_payload: 2048,
                deadline_percent: 20,
                ..base
            },
            Workload::HwFaults => TrafficConfig {
                requests: 2000,
                kernels: vec![Kernel::Fade, Kernel::Blend],
                mean_gap: SimTime::from_us(1_200),
                burst_percent: 40,
                min_payload: 8 * 1024,
                max_payload: 16 * 1024,
                ..base
            },
            Workload::Fleet => {
                let requests = 4000;
                TrafficConfig {
                    requests,
                    mean_gap: SimTime::from_us(100),
                    burst_percent: 30,
                    min_payload: 1024,
                    max_payload: 8 * 1024,
                    deadline_percent: 20,
                    deadline_budget: SimTime::from_ms(2),
                    zipf_skew: 1.1,
                    flash: Some(FlashCrowd {
                        start: requests / 3,
                        len: requests / 3,
                        gap_divisor: 16,
                    }),
                    ..base
                }
            }
        }
    }

    /// The workload's inputs for `seed`.
    ///
    /// Every seed sends the same kernels, payload sizes and lanes at the
    /// same instants: the traffic shape drawn once from [`DEFAULT_SEED`].
    /// The seed draws every payload's contents (and, in `hw_faults`, the
    /// upset process). Which kernels arrive when decides most of a run's
    /// host work and simulated latency; holding it fixed is what makes
    /// runs on different seeds comparable.
    pub fn schedule(self, seed: u64) -> Schedule {
        let mut rng = SplitMix64::new(seed);
        self.traffic()
            .generate()
            .into_iter()
            .map(|(arrival, shape)| {
                let fresh = Request::synthetic(shape.kernel(), shape.payload_bytes(), &mut rng);
                (
                    arrival,
                    Request {
                        lane: shape.lane,
                        ..fresh
                    },
                )
            })
            .collect()
    }

    /// Every machine the workload boots, as `(trace shard, service
    /// configuration)`: one for a single service, one per shard for the
    /// fleet (the configuration `Cluster::new` derives from a default
    /// `ShardSpec`).
    pub fn machines(self, seed: u64) -> Vec<(u32, ServiceConfig)> {
        match self.service_config(seed, Tracer::disabled()) {
            Some(config) => vec![(0, config)],
            None => fleet_pools()
                .iter()
                .enumerate()
                .flat_map(|(p, kinds)| {
                    kinds.iter().enumerate().map(move |(s, &kind)| {
                        (p as u32 * POOL_STRIDE + s as u32, ServiceConfig::new(kind))
                    })
                })
                .collect(),
        }
    }

    /// The single service's configuration (`None` for the fleet).
    fn service_config(self, seed: u64, trace: Tracer) -> Option<ServiceConfig> {
        let config = match self {
            Workload::SwInterp => ServiceConfig {
                policy: Policy::SwOnly,
                ..ServiceConfig::new(SystemKind::Bit32)
            },
            Workload::ServiceMix => ServiceConfig {
                batch: BatchPolicy::swap_aware(),
                ..ServiceConfig::new(SystemKind::Bit64)
            },
            // The ambient burst cadence and scrub policy of the fault
            // scenario's scrub pair, behind a cached differential plane.
            Workload::HwFaults => ServiceConfig {
                plane: ConfigPlaneConfig {
                    cache_capacity: 16,
                    differential: true,
                    compress: false,
                    slot_widths: Vec::new(),
                },
                burst: Some(BurstConfig {
                    mean_gap: SimTime::from_us(12_000),
                    mean_burst: SimTime::from_us(2_000),
                    window: 96,
                    max_bits: 2,
                    ..BurstConfig::new(seed ^ 0xB0B5, 4.0)
                }),
                scrub: Some(ScrubPolicy {
                    period: SimTime::from_us(1_500),
                    frames_per_pass: 244,
                }),
                ..ServiceConfig::new(SystemKind::Bit64)
            },
            Workload::Fleet => return None,
        };
        Some(ServiceConfig { trace, ..config })
    }

    /// Boots the workload's system cold, journaling into `trace`. The
    /// fleet boots and serves its shards on `threads` worker threads (1:
    /// inline); a single service ignores it.
    pub fn boot(self, seed: u64, trace: Tracer, threads: usize) -> System {
        match self.service_config(seed, trace.clone()) {
            Some(config) => System::Service(Box::new(Service::new(config))),
            None => System::Federation(Box::new(Federation::new(fleet_config(trace, threads)))),
        }
    }
}

/// System kinds of the fleet's three pools: all-Bit32, all-Bit64, mixed.
fn fleet_pools() -> [Vec<SystemKind>; 3] {
    use SystemKind::{Bit32, Bit64};
    [vec![Bit32; 3], vec![Bit64; 3], vec![Bit32, Bit64]]
}

/// The fleet: cost-model routing over the three pools, least-loaded
/// routing on stale estimates inside each, every kernel accepted.
fn fleet_config(trace: Tracer, threads: usize) -> FederationConfig {
    let pools = fleet_pools()
        .iter()
        .map(|kinds| ClusterConfig {
            shards: kinds.iter().map(|&kind| ShardSpec::new(kind)).collect(),
            stale_estimates: true,
            threads,
            ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::LeastLoaded)
        })
        .collect();
    FederationConfig {
        policy: FedPolicy::CostModel,
        shed_watermark: 9,
        steal_watermark: 12,
        steal_batch: 3,
        trace,
        ..FederationConfig::new(pools)
    }
}

/// A booted workload system.
pub enum System {
    /// One service.
    Service(Box<Service>),
    /// The fleet.
    Federation(Box<Federation>),
}

impl System {
    /// Machine-clock instant each machine finished booting, by trace
    /// shard: a fleet request admitted at machine time `t` on shard `s`
    /// arrived at stream time `t − origin(s)`.
    pub fn origins(&self) -> Vec<(u32, SimTime)> {
        match self {
            System::Service(svc) => vec![(0, svc.now())],
            System::Federation(fed) => fed
                .pools()
                .iter()
                .enumerate()
                .flat_map(|(p, pool)| {
                    pool.shards().iter().map(move |shard| {
                        let id = p as u32 * POOL_STRIDE + shard.id() as u32;
                        (id, shard.service().now())
                    })
                })
                .collect(),
        }
    }

    /// Serves the whole schedule through `Service::process` or
    /// `Federation::run`; the input copy the federation consumes is made
    /// before the clock starts.
    pub fn serve(&mut self, schedule: &[(SimTime, Request)]) -> (Duration, Outcome) {
        match self {
            System::Service(svc) => {
                let start = Instant::now();
                let snap = svc.process(schedule).expect("generated traffic is sorted");
                let serve = start.elapsed();
                (serve, Outcome::service(schedule.len(), snap))
            }
            System::Federation(fed) => {
                let input = schedule.to_vec();
                let start = Instant::now();
                let snap = fed.run(input);
                let serve = start.elapsed();
                (serve, Outcome::federation(schedule.len(), snap))
            }
        }
    }
}

/// The simulated result of serving one schedule.
pub struct Outcome {
    /// Requests in the schedule.
    pub requests: u64,
    /// Totals over every machine.
    pub total: MetricsSnapshot,
    /// Simulated makespan.
    pub makespan: SimTime,
    /// FNV-1a digest of the rendered snapshot.
    pub digest: u64,
    /// The federation snapshot (fleet only).
    pub federation: Option<FederationSnapshot>,
}

impl Outcome {
    pub fn service(requests: usize, snap: MetricsSnapshot) -> Outcome {
        Outcome {
            requests: requests as u64,
            makespan: snap.elapsed,
            digest: fnv1a64(snap.to_json().render().as_bytes()),
            total: snap,
            federation: None,
        }
    }

    pub fn federation(requests: usize, snap: FederationSnapshot) -> Outcome {
        Outcome {
            requests: requests as u64,
            makespan: snap.makespan,
            digest: fnv1a64(snap.to_json().render().as_bytes()),
            total: snap.total.clone(),
            federation: Some(snap),
        }
    }

    /// Requests not answered, plus answers that failed verification.
    pub fn failures(&self) -> u64 {
        self.requests.saturating_sub(self.total.completed) + self.total.verify_failures
    }
}

/// One cold pass: boot (timed as set-up), then serve (timed as serving).
pub struct Pass {
    /// Host time of `Service::new` or `Federation::new`.
    pub setup: Duration,
    /// Host time of `Service::process` or `Federation::run`.
    pub serve: Duration,
    /// The host-speed meter over the set-up (no runs unless it is started).
    pub setup_meter: meter::Reading,
    /// The host-speed meter over the serve.
    pub serve_meter: meter::Reading,
    /// CPU time of the process, over all its threads, while serving.
    pub serve_cpu: Duration,
    /// What the pass simulated.
    pub outcome: Outcome,
}

/// Runs one untraced cold pass of `workload` over `schedule`, the fleet
/// on `threads` worker threads.
pub fn pass(
    workload: Workload,
    seed: u64,
    schedule: &[(SimTime, Request)],
    threads: usize,
) -> Pass {
    let boot_mark = meter::mark();
    let start = Instant::now();
    let mut system = workload.boot(seed, Tracer::disabled(), threads);
    let setup = start.elapsed();
    let setup_meter = meter::since(boot_mark);
    let serve_mark = meter::mark();
    let cpu_before = process_cpu();
    let (serve, outcome) = system.serve(schedule);
    Pass {
        setup,
        serve,
        setup_meter,
        serve_meter: meter::since(serve_mark),
        serve_cpu: process_cpu() - cpu_before,
        outcome,
    }
}
