//! The run-time reconfiguration service.
//!
//! [`Service`] owns one simulated machine, its [`ModuleManager`] and a
//! request [`Driver`]. Clients' requests land in per-module admission
//! queues; the scheduler serves one batch at a time and, per batch,
//! either runs software-only on the PPC405 model or reconfigures the
//! dynamic region and runs the hardware path — whichever the calibrated
//! cost model predicts is cheaper once the ICAP transfer is amortized
//! over the queued work.

use rtr_apps::request::{component_for, component_for_slot, factory_for, Driver, Kernel, Request};
use rtr_configplane::{ConfigPlaneConfig, ConfigPlaneStats};
use rtr_core::{
    build_system, BurstConfig, FaultPlan, LoadOutcome, Machine, ModuleManager, RetryPolicy,
    ScrubPolicy, ScrubStats, SystemKind,
};
use rtr_telemetry::{Gauge, Telemetry};
use rtr_trace::{EventKind, Tracer};
use vp2_sim::SimTime;

use crate::cost::CostModel;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{AdmissionQueues, Pending};
use crate::sched::{lane_rank, BatchPolicy, Candidate, LaneRank, DEFAULT_MAX_HEAD_AGE};
use crate::share::BootShare;

/// Batch-path selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Never touch the dynamic region — the paper's software baseline.
    SwOnly,
    /// Reconfigure when the cost model says the batch amortizes it.
    CostModel,
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Which of the two systems to build.
    pub kind: SystemKind,
    /// Batch-path selection policy (software vs hardware per batch).
    pub policy: Policy,
    /// Batch-scheduling policy (which kernel's queue to drain next).
    pub batch: BatchPolicy,
    /// Kernels the service accepts (empty defaults to all six).
    pub kernels: Vec<Kernel>,
    /// Per-frame configuration-corruption probability (0 disables fault
    /// injection entirely — the simulation is then bit-identical to a
    /// build without the fault plane).
    pub fault_rate: f64,
    /// Seed for the deterministic fault plan.
    pub fault_seed: u64,
    /// How long a kernel stays quarantined from the hardware path after
    /// repeated load failures.
    pub quarantine_cooldown: SimTime,
    /// Readmit quarantined kernels through a canary half-open probe:
    /// after the cooldown, exactly one batch is admitted to hardware as
    /// a probe; success readmits the kernel,
    /// failure re-quarantines it with exponential cooldown backoff
    /// (doubling per consecutive failed probe, capped at
    /// `quarantine_cooldown_cap`). Off = the pre-canary behavior, where
    /// a failed half-open batch only counts as an ordinary strike.
    pub canary: bool,
    /// Upper bound on the backed-off canary cooldown.
    pub quarantine_cooldown_cap: SimTime,
    /// Ambient correlated-upset process over the dynamic region's
    /// configuration frames (`None` — the default — is bit-identical to
    /// a build without the burst plane).
    pub burst: Option<BurstConfig>,
    /// Retry/repair ladder the module manager climbs on a readback
    /// mismatch. The default is [`RetryPolicy::default`]; a tighter
    /// policy models a platform that degrades to software sooner rather
    /// than burning reconfiguration bandwidth on a stormy region.
    pub retry: RetryPolicy,
    /// Background configuration scrubbing policy, ticked between
    /// batches on the machine clock (`None` disables scrubbing).
    pub scrub: Option<ScrubPolicy>,
    /// Configuration-plane features (bitstream cache, differential frame
    /// compression, multi-module sub-slots). The default — everything
    /// off — makes the manager's load path bit-identical to a build
    /// without the plane. When `slot_widths` is set, kernel components
    /// are placed to fit the narrowest sub-slot; kernels too large for it
    /// stay on the software path.
    pub plane: ConfigPlaneConfig,
    /// Trace journal handle. The default ([`Tracer::disabled`]) records
    /// nothing and costs one branch per instrumentation point; an enabled
    /// handle journals the whole request/reconfiguration lifecycle.
    /// Tracing never touches the simulated clock or any model state, so
    /// results are bit-identical with it on or off.
    pub trace: Tracer,
    /// Telemetry handle. The default ([`Telemetry::disabled`]) records
    /// nothing and costs one branch per sampling point; an enabled
    /// handle samples queue depth, throughput, region utilization, the
    /// reconfiguration EWMA and per-lane tails on its tick grid.
    /// Sampling is read-only — results are bit-identical with it on or
    /// off.
    pub telemetry: Telemetry,
}

impl ServiceConfig {
    /// Cost-model scheduling over all kernels, with fault injection off.
    /// Every response is checked against the Rust reference
    /// implementation.
    pub fn new(kind: SystemKind) -> Self {
        ServiceConfig {
            kind,
            policy: Policy::CostModel,
            batch: BatchPolicy::FcfsDrain,
            kernels: Vec::new(),
            fault_rate: 0.0,
            fault_seed: 0x5EED_FA57,
            quarantine_cooldown: SimTime::from_ms(5),
            canary: true,
            quarantine_cooldown_cap: SimTime::from_ms(80),
            burst: None,
            retry: RetryPolicy::default(),
            scrub: None,
            plane: ConfigPlaneConfig::default(),
            trace: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Same, with configuration-plane fault injection enabled.
    pub fn with_faults(kind: SystemKind, rate: f64, seed: u64) -> Self {
        ServiceConfig {
            fault_rate: rate,
            fault_seed: seed,
            ..ServiceConfig::new(kind)
        }
    }
}

/// Errors the scheduler reports instead of processing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The schedule's arrival times are not sorted ascending.
    UnsortedSchedule {
        /// Index of the first entry arriving before its predecessor.
        index: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnsortedSchedule { index } => {
                write!(f, "schedule arrival times must be sorted ascending (entry {index} arrives before its predecessor)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Load failures needed before a kernel is quarantined from hardware.
const QUARANTINE_STRIKES: u32 = 2;

/// Hardware-path health of one kernel.
#[derive(Debug, Clone, Copy, Default)]
struct Quarantine {
    /// Consecutive load failures (degraded loads or mis-executing
    /// hardware) since the last verified success.
    strikes: u32,
    /// Quarantined until this instant, if set.
    until: Option<SimTime>,
    /// The cooldown expired but no hardware batch has succeeded yet.
    half_open: bool,
    /// Consecutive failed canary probes: the next cooldown doubles per
    /// failure (capped), and a successful probe resets the run.
    backoff: u32,
}

/// The scheduler and the platform it drives.
pub struct Service {
    config: ServiceConfig,
    kernels: Vec<Kernel>,
    machine: Machine,
    manager: ModuleManager,
    driver: Driver,
    queues: AdmissionQueues,
    cost: CostModel,
    metrics: Metrics,
    lifetime: Metrics,
    hw_ready: [bool; Kernel::ALL.len()],
    quarantine: [Quarantine; Kernel::ALL.len()],
    boot_origin: SimTime,
    submitted: u64,
    tracer: Tracer,
    telemetry: Telemetry,
}

impl Service {
    /// Boots the service: builds the system, registers every accepted
    /// kernel that has a hardware form (linking its partial bitstream
    /// into the manager's cache), downloads the driver programs, and
    /// performs one warm-up load so the reconfiguration-time estimate
    /// starts from a measurement instead of a guess. The boot calibrates
    /// nothing: the cost model fits each kernel by its two-point probes
    /// on the first read of its estimates, so a kernel no decision prices
    /// is never probed. Nothing is shared: the boot links, and the model
    /// fits, through a private [`BootShare`] that is dropped when it
    /// returns.
    pub fn new(config: ServiceConfig) -> Self {
        Service::boot(config, &BootShare::new())
    }

    /// Boots the service like [`Service::new`], but takes the cost
    /// model's fit cells (one per system kind and kernel) and the linked
    /// module images (keyed by system kind, component, origin and slot
    /// plan) from `share`, so a kernel fitted or an image linked by any
    /// service booted through it is computed once. The machine, warm-up
    /// load, clock and cost-model EWMAs stay this service's own, so the
    /// result is identical to [`Service::new`].
    pub fn boot(config: ServiceConfig, share: &BootShare) -> Self {
        let kernels: Vec<Kernel> = if config.kernels.is_empty() {
            Kernel::ALL.to_vec()
        } else {
            config.kernels.clone()
        };
        let mut machine = build_system(config.kind);
        if config.fault_rate > 0.0 {
            machine
                .platform
                .icap
                .set_fault_plan(Some(FaultPlan::new(config.fault_seed, config.fault_rate)));
        }
        let mut manager = ModuleManager::with_images(config.kind, share.images().clone());
        manager
            .configure_plane(config.plane.clone())
            .unwrap_or_else(|e| panic!("configuration plane: {e}"));
        // Multi-module sub-slots shrink the placement footprint: size every
        // component to the narrowest slot so it is registrable in all of
        // them. Kernels that no longer fit degrade to software-only.
        let slot_width = config.plane.slot_widths.iter().copied().min();
        let mut hw_ready = [false; Kernel::ALL.len()];
        for &kernel in &kernels {
            let component = match slot_width {
                Some(w) => component_for_slot(kernel, config.kind, w),
                None => component_for(kernel, config.kind),
            };
            if let Some(component) = component {
                manager
                    .register(component, (0, 0), factory_for(kernel))
                    .unwrap_or_else(|e| panic!("register {kernel}: {e}"));
                hw_ready[kernel.index()] = true;
            }
        }
        let mut driver = Driver::new();
        driver.preload_all(&mut machine);
        // Install the journal before the warm-up load so boot-time
        // reconfiguration is captured too.
        let tracer = config.trace.clone();
        let telemetry = config.telemetry.clone();
        machine.set_tracer(tracer.clone());
        manager.set_tracer(tracer.clone());
        let mut cost = CostModel::lazy(config.kind, &kernels, &driver, |kernel| {
            share.fit_cell(config.kind, kernel)
        });
        // With the configuration plane active, swap costs genuinely differ
        // per kernel (cached or differential images vs cold loads), so the
        // cost model tracks them individually.
        if config.plane.enabled() {
            cost.set_kernel_aware(true);
        }
        // Ambient upsets and background scrubbing, both default-off. The
        // burst plan is installed over the region's frames before the
        // warm-up load so boot-time exposure is on the timeline too.
        if let Some(burst) = config.burst {
            machine.platform.install_seu(burst, manager.region_frames());
        }
        manager.retry = config.retry;
        manager.set_scrub(config.scrub);
        let mut warmup_degraded = None;
        if let Some(&first_hw) = kernels.iter().find(|&&k| hw_ready[k.index()]) {
            match manager.load(&mut machine, first_hw.module_name()) {
                Ok(LoadOutcome::Loaded { reconfig_time, .. }) => {
                    cost.observe_reconfig_for(first_hw, reconfig_time)
                }
                Ok(LoadOutcome::AlreadyLoaded) | Ok(LoadOutcome::Activated { .. }) => {
                    unreachable!("nothing loaded at boot")
                }
                // A hostile configuration plane at boot is not fatal: the
                // service comes up software-only for this kernel.
                Ok(LoadOutcome::Degraded { .. }) => warmup_degraded = Some(first_hw),
                Err(e) => panic!("warm-up load of {first_hw}: {e}"),
            }
        }
        let boot_origin = machine.now();
        let mut svc = Service {
            config,
            kernels,
            machine,
            manager,
            driver,
            queues: AdmissionQueues::new(),
            cost,
            metrics: Metrics::new(),
            lifetime: Metrics::new(),
            hw_ready,
            quarantine: [Quarantine::default(); Kernel::ALL.len()],
            boot_origin,
            submitted: 0,
            tracer,
            telemetry,
        };
        if let Some(kernel) = warmup_degraded {
            svc.strike(kernel, boot_origin);
        }
        svc
    }

    /// The cost model. Reading a kernel's estimates fits that kernel if
    /// no model sharing its cell has yet.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Which of the paper's two systems this service simulates.
    pub fn kind(&self) -> SystemKind {
        self.config.kind
    }

    /// The module manager (reconfiguration counters, resident module).
    pub fn manager(&self) -> &ModuleManager {
        &self.manager
    }

    /// Current simulated time on the service's machine.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// Requests admitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// The id the next admitted request will be assigned, read straight
    /// from the admission queues' monotone counter. This is the
    /// authoritative source for trace events that must name a request
    /// before the service has admitted it (e.g. cluster buffer events):
    /// deriving the id from any other counter can desync from the span
    /// ids the service itself journals.
    pub fn next_request_id(&self) -> u64 {
        self.queues.next_id()
    }

    /// The service's trace handle (disabled unless one was configured).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The service's telemetry handle (disabled unless one was
    /// configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs an open-loop schedule of `(arrival, request)` pairs (arrival
    /// times relative to the call; must be sorted ascending) to
    /// completion and returns the metrics over exactly that window —
    /// each call starts a fresh window; [`Service::lifetime`] keeps the
    /// running totals.
    pub fn process(
        &mut self,
        schedule: &[(SimTime, Request)],
    ) -> Result<MetricsSnapshot, ServiceError> {
        let origin = self.machine.now();
        let window = self.process_window(schedule)?;
        let mut snap = window.snapshot(self.machine.now() - origin);
        snap.plane = self.plane_snapshot();
        snap.scrub = self.scrub_snapshot();
        self.lifetime.absorb(&window);
        Ok(snap)
    }

    /// Background-scrubbing counters, or `None` when scrubbing is off.
    /// Lifetime-cumulative, like [`Service::plane_snapshot`].
    pub fn scrub_snapshot(&self) -> Option<ScrubStats> {
        self.manager
            .scrub_policy()
            .is_some()
            .then(|| self.manager.scrub_stats())
    }

    /// Configuration-plane counters (cache, differential transfers,
    /// sub-slot residency), or `None` when every plane feature is off.
    /// The counters are lifetime-cumulative — they live in the manager,
    /// not the per-window metrics accumulator.
    pub fn plane_snapshot(&self) -> Option<ConfigPlaneStats> {
        self.manager
            .plane()
            .enabled()
            .then(|| self.manager.plane_stats())
    }

    /// Like [`Service::process`], but returns the raw window accumulator
    /// instead of a folded snapshot — the hook a multi-shard front-end
    /// needs to merge windows across machines (raw latency series merge;
    /// percentiles do not). The caller owns the window: it is *not*
    /// absorbed into [`Service::lifetime`].
    pub fn process_window(
        &mut self,
        schedule: &[(SimTime, Request)],
    ) -> Result<Metrics, ServiceError> {
        self.run_window(self.machine.now(), schedule)
    }

    /// Like [`Service::process_window`], but arrival times are absolute
    /// machine-clock instants rather than offsets from the call. Arrivals
    /// may lie in the past (a front-end buffered them while this machine
    /// was busy); such requests are admitted immediately, and because the
    /// true arrival is what latency is measured from, the time they spent
    /// waiting outside the machine counts as queueing delay.
    pub fn process_window_at(
        &mut self,
        schedule: &[(SimTime, Request)],
    ) -> Result<Metrics, ServiceError> {
        self.run_window(SimTime::ZERO, schedule)
    }

    /// Shared window loop: entry arrival is `base + offset`, with `base`
    /// the call instant for the relative path and zero for the absolute
    /// one.
    fn run_window(
        &mut self,
        base: SimTime,
        schedule: &[(SimTime, Request)],
    ) -> Result<Metrics, ServiceError> {
        // An unsorted schedule would silently reorder admissions (the
        // arrival scan assumes monotone times), so reject it outright
        // rather than only in debug builds.
        if let Some(i) = (1..schedule.len()).find(|&i| schedule[i].0 < schedule[i - 1].0) {
            return Err(ServiceError::UnsortedSchedule { index: i });
        }
        let mut next = 0;
        while next < schedule.len() || !self.queues.is_empty() {
            self.manager.scrub_tick(&mut self.machine);
            let now = self.machine.now();
            while next < schedule.len() && base + schedule[next].0 <= now {
                let (arrival, req) = &schedule[next];
                self.admit(base + *arrival, next, req);
                next += 1;
            }
            match self.pick_kernel() {
                Some(kernel) => {
                    let batch = self.queues.drain(kernel);
                    self.dispatch(kernel, batch, schedule);
                }
                // Nothing queued: idle forward to the next arrival — but
                // stop at the next scrub deadline so background passes
                // keep their cadence through idle stretches instead of
                // bunching up at the next batch.
                None => {
                    let target = base + schedule[next].0;
                    let stop = match self.manager.next_scrub_due() {
                        Some(due) if due < target => due,
                        _ => target,
                    };
                    self.machine.idle_until(stop);
                }
            }
        }
        Ok(std::mem::take(&mut self.metrics))
    }

    /// Metrics over the service's whole life (every completed window plus
    /// whatever the current one has accumulated), with `elapsed` measured
    /// from the end of boot.
    pub fn lifetime(&self) -> MetricsSnapshot {
        let mut all = Metrics::new();
        all.absorb(&self.lifetime);
        all.absorb(&self.metrics);
        let mut snap = all.snapshot(self.machine.now() - self.boot_origin);
        snap.plane = self.plane_snapshot();
        snap.scrub = self.scrub_snapshot();
        snap
    }

    /// Queues one request, entry `index` of the schedule being served,
    /// that arrived at absolute time `arrival`.
    fn admit(&mut self, arrival: SimTime, index: usize, request: &Request) {
        assert!(
            self.kernels.contains(&request.kernel()),
            "service does not accept {} requests",
            request.kernel()
        );
        self.submitted += 1;
        let kernel = request.kernel();
        let id = self.queues.push(arrival, index, request);
        if self.tracer.on() {
            self.tracer.emit(
                self.machine.now(),
                EventKind::RequestAdmit {
                    id,
                    kernel: kernel.module_name(),
                    arrival,
                },
            );
        }
    }

    /// Asks the batch policy which non-empty queue to drain next, and
    /// journals the decision (policy, candidate set, chosen kernel).
    ///
    /// The candidate snapshot is read-only — in particular it uses the
    /// non-mutating quarantine view, leaving the half-open transition to
    /// `dispatch` — so a decision never perturbs the simulation.
    fn pick_kernel(&mut self) -> Option<Kernel> {
        let now = self.machine.now();
        let batch_policy = self.config.batch;
        let resident = self.manager.loaded();
        let want_maturity = batch_policy == BatchPolicy::SwapAware;
        let want_ranks = batch_policy == BatchPolicy::Lanes;
        // Does the resident module have queued work? Then leaving the
        // region strands it: the lookahead charges a competitor for the
        // swap back, not just the swap there.
        let resident_busy = Kernel::ALL
            .iter()
            .any(|k| resident == Some(k.module_name()) && self.queues.head(*k).is_some());
        let mut candidates = Vec::new();
        for kernel in Kernel::ALL {
            let Some(head) = self.queues.head(kernel) else {
                continue;
            };
            let (head_arrival, head_id) = (head.arrival, head.id);
            let is_resident = resident == Some(kernel.module_name());
            // "Mature" = switching to this queue strictly pays off: one
            // reconfiguration when the resident region is idle, two when
            // the switch abandons live resident work (the lookahead
            // charges the swap back). Only computed for the policy that
            // reads it: the check walks the queue's payload sizes.
            let mature = want_maturity
                && !is_resident
                && self.config.policy == Policy::CostModel
                && self.hw_ready[kernel.index()]
                && !self.quarantine_peek(kernel, now)
                && {
                    let bytes = self.queues.queued_bytes(kernel);
                    if resident_busy {
                        self.cost.hardware_pays_round_trip(kernel, &bytes)
                    } else {
                        self.cost.hardware_pays_off(kernel, &bytes, true)
                    }
                };
            let best_rank: LaneRank = if want_ranks {
                self.queues
                    .pending(kernel)
                    .map(lane_rank)
                    .min()
                    .expect("non-empty queue")
            } else {
                (
                    rtr_apps::request::Priority::Normal,
                    u64::MAX,
                    head_arrival.as_ps(),
                    head_id,
                )
            };
            candidates.push(Candidate {
                kernel,
                depth: self.queues.depth(kernel),
                head_arrival,
                head_id,
                resident: is_resident,
                mature,
                best_rank,
            });
        }
        let idx = batch_policy.choose(now, &candidates, self.max_head_age())?;
        let chosen = candidates[idx].kernel;
        if self.tracer.on() {
            self.tracer.emit(
                now,
                EventKind::SchedDecision {
                    policy: batch_policy.name(),
                    chosen: chosen.module_name(),
                    candidates: candidates.iter().map(|c| c.kernel.module_name()).collect(),
                },
            );
        }
        Some(chosen)
    }

    /// The swap-aware starvation bound: ten swaps' worth of waiting at
    /// the measured reconfiguration EWMA, matching the rationale behind
    /// [`DEFAULT_MAX_HEAD_AGE`] (~10 × the ~6 ms full-region load), which
    /// applies until a swap has been observed.
    fn max_head_age(&self) -> SimTime {
        let est = self.cost.reconfig_estimate();
        if est.is_zero() {
            DEFAULT_MAX_HEAD_AGE
        } else {
            est * 10
        }
    }

    /// Read-only view of [`Service::quarantine_active`]: is the kernel's
    /// hardware path barred at `now`? Does not perform the half-open
    /// transition.
    fn quarantine_peek(&self, kernel: Kernel, now: SimTime) -> bool {
        self.quarantine[kernel.index()]
            .until
            .is_some_and(|until| now < until)
    }

    /// Runs one batch, choosing the path per policy, cost model and
    /// quarantine state. Whatever the configuration plane does, every
    /// request in the batch is answered — a failed or distrusted hardware
    /// path degrades to the PPC405 software implementation.
    fn dispatch(
        &mut self,
        kernel: Kernel,
        mut batch: Vec<Pending>,
        schedule: &[(SimTime, Request)],
    ) {
        // Under lanes the drained batch executes in rank order (EDF
        // within the batch); the rank ends in the submission id, so the
        // order is total and deterministic.
        if self.config.batch == BatchPolicy::Lanes {
            batch.sort_by_key(lane_rank);
        }
        let bytes: Vec<usize> = batch.iter().map(|p| p.bytes).collect();
        let resident = self.manager.loaded();
        let swap_needed = resident != Some(kernel.module_name());
        // Under the swap-aware policy the path decision carries the same
        // lookahead as the queue choice: a swap that strands live work
        // for the resident module must pay for the swap back too, or the
        // batch runs in software and the region stays put.
        let round_trip = swap_needed
            && self.config.batch == BatchPolicy::SwapAware
            && Kernel::ALL
                .iter()
                .any(|k| resident == Some(k.module_name()) && self.queues.head(*k).is_some());
        let now = self.machine.now();
        let quarantined = self.quarantine_active(kernel, now);
        let mut use_hw = match self.config.policy {
            Policy::SwOnly => false,
            Policy::CostModel => {
                self.hw_ready[kernel.index()]
                    && !quarantined
                    && if round_trip {
                        self.cost.hardware_pays_round_trip(kernel, &bytes)
                    } else {
                        self.cost.hardware_pays_off(kernel, &bytes, swap_needed)
                    }
            }
        };
        if quarantined && self.config.policy == Policy::CostModel && self.hw_ready[kernel.index()] {
            self.metrics.record_quarantined_batch();
        }
        let batch_start = self.machine.now();
        if self.tracer.on() {
            self.tracer.emit(
                batch_start,
                EventKind::BatchBegin {
                    kernel: kernel.module_name(),
                    size: batch.len() as u32,
                    hw: use_hw,
                },
            );
            for p in &batch {
                self.tracer
                    .emit(batch_start, EventKind::RequestDequeue { id: p.id });
            }
        }
        // A half-open kernel's first hardware batch is the canary probe:
        // its outcome decides readmission versus a longer cooldown.
        let canary = self.config.canary && use_hw && self.quarantine[kernel.index()].half_open;
        if canary {
            self.metrics.record_canary_probe();
            self.tracer.emit(
                batch_start,
                EventKind::CanaryProbe {
                    kernel: kernel.module_name(),
                },
            );
        }
        let mut struck = false;
        if use_hw && swap_needed {
            match self.manager.load(&mut self.machine, kernel.module_name()) {
                Ok(LoadOutcome::Loaded {
                    reconfig_time,
                    repaired_frames,
                    attempts,
                    ..
                }) => {
                    self.cost.observe_reconfig_for(kernel, reconfig_time);
                    self.metrics.record_swap(reconfig_time);
                    self.metrics.record_load_recovery(attempts, repaired_frames);
                    // A verified load clears the kernel's record.
                    self.quarantine[kernel.index()].strikes = 0;
                }
                Ok(LoadOutcome::AlreadyLoaded) => {}
                // Resident in another sub-slot: the dock was rebound with
                // no ICAP traffic. Not a swap — the plane stats count it.
                Ok(LoadOutcome::Activated { .. }) => {
                    self.quarantine[kernel.index()].strikes = 0;
                }
                Ok(LoadOutcome::Degraded { attempts }) => {
                    // The region never verified: run this batch in
                    // software and count a strike against the kernel.
                    self.metrics.record_degraded_load(attempts);
                    struck = true;
                    use_hw = false;
                }
                Err(e) => panic!("load {kernel}: {e}"),
            }
        }
        for pending in batch {
            let request = &schedule[pending.index].1;
            let (_, response) = if use_hw {
                self.driver.run_hw(&mut self.machine, request)
            } else {
                self.driver.run_sw(&mut self.machine, request)
            };
            let mut served_hw = use_hw;
            let mut final_response = response;
            let reference = request.reference();
            if final_response != reference && use_hw {
                // Mis-executing hardware: recompute on the PPC405 so the
                // client still gets the right answer, and stop trusting
                // this kernel's hardware.
                self.metrics.record_hw_fallback();
                struck = true;
                let (_, sw_response) = self.driver.run_sw(&mut self.machine, request);
                final_response = sw_response;
                served_hw = false;
            }
            if final_response != reference {
                self.metrics.record_verify_failure();
            }
            // Latency is wall time on the simulated clock — it includes
            // queueing, the swap and the execution, not just the call.
            let latency = self.machine.now().saturating_sub(pending.arrival);
            let deadline_lane = pending.lane.deadline.is_some();
            self.metrics
                .record_item_in_lane(latency, served_hw, deadline_lane);
            self.telemetry.record_latency(deadline_lane, latency);
            if let Some(expires) = pending.lane.expires_at(pending.arrival) {
                self.metrics.record_deadline(self.machine.now() <= expires);
            }
            if self.tracer.on() {
                self.tracer.emit(
                    self.machine.now(),
                    EventKind::RequestComplete {
                        id: pending.id,
                        kernel: kernel.module_name(),
                        hw: served_hw,
                    },
                );
            }
        }
        let batch_end = self.machine.now();
        self.metrics.record_batch(use_hw, batch_end - batch_start);
        if self.telemetry.on() {
            self.sample_telemetry(batch_end);
        }
        if self.tracer.on() {
            self.tracer.emit(
                batch_end,
                EventKind::BatchEnd {
                    kernel: kernel.module_name(),
                    hw: use_hw,
                },
            );
        }
        if struck {
            if canary {
                // The probe failed: no second strike needed while the
                // kernel is on probation — re-quarantine immediately,
                // doubling the cooldown per consecutive failure (capped)
                // so a persistently broken region stops burning probes.
                let q = &mut self.quarantine[kernel.index()];
                q.backoff = q.backoff.saturating_add(1);
                let shift = q.backoff.min(20);
                let cooldown_ps = self
                    .config
                    .quarantine_cooldown
                    .as_ps()
                    .saturating_mul(1u64 << shift);
                let cap = self
                    .config
                    .quarantine_cooldown_cap
                    .max(self.config.quarantine_cooldown);
                let cooldown = SimTime::from_ps(cooldown_ps).min(cap);
                q.strikes = 0;
                q.half_open = false;
                q.until = Some(batch_end + cooldown);
                self.metrics.record_canary_failed();
                self.metrics.record_quarantine();
                self.tracer.emit(
                    batch_end,
                    EventKind::CanaryResult {
                        kernel: kernel.module_name(),
                        admitted: false,
                    },
                );
                self.tracer.emit(
                    batch_end,
                    EventKind::QuarantineEnter {
                        kernel: kernel.module_name(),
                    },
                );
            } else {
                self.strike(kernel, batch_end);
            }
        } else if use_hw && self.quarantine[kernel.index()].half_open {
            // A clean hardware batch while half-open: trusted again.
            let q = &mut self.quarantine[kernel.index()];
            q.half_open = false;
            q.backoff = 0;
            if canary {
                self.metrics.record_canary_readmitted();
                self.tracer.emit(
                    batch_end,
                    EventKind::CanaryResult {
                        kernel: kernel.module_name(),
                        admitted: true,
                    },
                );
            }
            self.tracer.emit(
                batch_end,
                EventKind::QuarantineExit {
                    kernel: kernel.module_name(),
                },
            );
        }
    }

    /// Takes the `"service"`-scope telemetry sample at a batch boundary.
    /// Cumulative totals (completed, swaps, region busy-seconds) span
    /// the whole service life — the handle turns them into rates per
    /// simulated second; region utilization falls out of the
    /// busy-seconds rate directly. Read-only: the sample never touches
    /// the machine or any scheduling state.
    fn sample_telemetry(&self, now: SimTime) {
        let completed = self.lifetime.completed() + self.metrics.completed();
        let swaps = self.lifetime.swaps() + self.metrics.swaps();
        let hw_busy = self.lifetime.hw_busy() + self.metrics.hw_busy();
        let mut gauges = vec![
            Gauge::value("queue_depth", self.queues.len() as f64),
            Gauge::rate("completed_per_s", completed as f64),
            Gauge::rate("swaps_per_s", swaps as f64),
            Gauge::rate("region_util", hw_busy.as_secs_f64()),
            Gauge::value(
                "reconfig_ewma_us",
                self.cost.reconfig_estimate().as_us_f64(),
            ),
        ];
        if self.config.plane.enabled() {
            let stats = self.manager.plane_stats();
            let lookups = stats.cache_hits + stats.cache_misses;
            let hit_rate = if lookups > 0 {
                stats.cache_hits as f64 / lookups as f64
            } else {
                0.0
            };
            gauges.push(Gauge::value("cache_hit_rate", hit_rate));
        }
        if self.manager.scrub_policy().is_some() {
            let s = self.manager.scrub_stats();
            gauges.push(Gauge::rate("scrub_frames_per_s", s.frames_scrubbed as f64));
        }
        self.telemetry.sample_with_tails(now, "service", &gauges);
    }

    /// Counts a hardware-path failure against the kernel; after
    /// [`QUARANTINE_STRIKES`] of them the kernel is barred from hardware
    /// for the configured cooldown.
    fn strike(&mut self, kernel: Kernel, now: SimTime) {
        let q = &mut self.quarantine[kernel.index()];
        q.strikes += 1;
        if q.strikes >= QUARANTINE_STRIKES {
            q.strikes = 0;
            q.until = Some(now + self.config.quarantine_cooldown);
            q.half_open = false;
            self.metrics.record_quarantine();
            self.tracer.emit(
                now,
                EventKind::QuarantineEnter {
                    kernel: kernel.module_name(),
                },
            );
        }
    }

    /// Is the kernel's hardware path quarantined at `now`? (The cooldown
    /// is half-open: once it expires the next batch may try hardware
    /// again.)
    fn quarantine_active(&mut self, kernel: Kernel, now: SimTime) -> bool {
        let q = &mut self.quarantine[kernel.index()];
        match q.until {
            Some(until) if now < until => true,
            Some(_) => {
                // Cooldown over: half-open until a hardware batch succeeds.
                q.until = None;
                q.half_open = true;
                self.tracer.emit(
                    now,
                    EventKind::QuarantineHalfOpen {
                        kernel: kernel.module_name(),
                    },
                );
                false
            }
            None => false,
        }
    }

    /// Is the kernel currently barred from the hardware path?
    pub fn quarantined(&self, kernel: Kernel) -> bool {
        self.quarantine[kernel.index()]
            .until
            .is_some_and(|until| self.machine.now() < until)
    }

    /// Can any kernel ever be quarantined on this service? Strikes only
    /// arise from fault-induced degraded loads or verify fallbacks, so a
    /// service with neither fault injection nor upset bursts never
    /// quarantines and callers may skip the live [`Service::quarantined`]
    /// probe.
    pub fn can_quarantine(&self) -> bool {
        self.config.fault_rate > 0.0 || self.config.burst.is_some()
    }

    /// True when the kernel can run in the dynamic region of this service.
    pub fn hardware_available(&self, kernel: Kernel) -> bool {
        self.hw_ready[kernel.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::kernel_has_hw;
    use vp2_sim::SplitMix64;

    fn burst(kernel: Kernel, n: usize, payload: usize) -> Vec<(SimTime, Request)> {
        let mut rng = SplitMix64::new(7);
        (0..n)
            .map(|i| {
                (
                    SimTime::from_ns(i as u64),
                    Request::synthetic(kernel, payload, &mut rng),
                )
            })
            .collect()
    }

    #[test]
    fn sw_only_policy_never_reconfigures_after_boot() {
        let mut svc = Service::new(ServiceConfig {
            policy: Policy::SwOnly,
            kernels: vec![Kernel::Jenkins],
            ..ServiceConfig::new(SystemKind::Bit32)
        });
        let boot_reconfigs = svc.manager().reconfigurations;
        let snap = svc.process(&burst(Kernel::Jenkins, 4, 192)).unwrap();
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.sw_items, 4);
        assert_eq!(snap.hw_items, 0);
        assert_eq!(snap.swaps, 0);
        assert_eq!(svc.manager().reconfigurations, boot_reconfigs);
        assert_eq!(snap.verify_failures, 0);
    }

    #[test]
    fn registration_mirrors_hardware_fit() {
        let svc32 = Service::new(ServiceConfig {
            policy: Policy::SwOnly,
            kernels: vec![Kernel::Sha1, Kernel::PatMatch],
            ..ServiceConfig::new(SystemKind::Bit32)
        });
        assert!(!svc32.hardware_available(Kernel::Sha1));
        assert!(svc32.hardware_available(Kernel::PatMatch));
        assert!(kernel_has_hw(Kernel::Sha1, SystemKind::Bit64));
    }

    #[test]
    fn unsorted_schedule_is_rejected_up_front() {
        let mut svc = Service::new(ServiceConfig {
            policy: Policy::SwOnly,
            kernels: vec![Kernel::Jenkins],
            ..ServiceConfig::new(SystemKind::Bit32)
        });
        let mut rng = SplitMix64::new(1);
        let schedule = vec![
            (
                SimTime::from_us(5),
                Request::synthetic(Kernel::Jenkins, 64, &mut rng),
            ),
            (
                SimTime::from_us(1),
                Request::synthetic(Kernel::Jenkins, 64, &mut rng),
            ),
        ];
        assert_eq!(
            svc.process(&schedule),
            Err(ServiceError::UnsortedSchedule { index: 1 })
        );
        assert_eq!(svc.submitted(), 0, "nothing admitted from a bad schedule");
    }

    #[test]
    fn configplane_accelerates_alternating_swaps() {
        // Six pattern-match items then ten deep fade items: both batches
        // amortize a cold swap, so every round forces a swap to fade and
        // (next round) back to pattern matching.
        let round: Vec<(SimTime, Request)> = {
            let mut rng = SplitMix64::new(11);
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
        };
        let run = |plane: ConfigPlaneConfig| {
            let mut svc = Service::new(ServiceConfig {
                kernels: vec![Kernel::PatMatch, Kernel::Fade],
                plane,
                ..ServiceConfig::new(SystemKind::Bit32)
            });
            for _ in 0..3 {
                let snap = svc.process(&round.clone()).unwrap();
                assert_eq!(snap.completed, 16);
                assert_eq!(snap.verify_failures, 0);
            }
            svc.lifetime()
        };
        let cold = run(ConfigPlaneConfig::default());
        let warm = run(ConfigPlaneConfig::full());
        assert!(cold.plane.is_none(), "plane off exports no counters");
        let stats = warm.plane.expect("plane on exports counters");
        // Swap counts may differ (cheap swaps change the cost model's
        // decisions — that is the point), so compare the mean swap cost.
        assert!(cold.swaps >= 1 && warm.swaps >= 1);
        let mean = |s: &MetricsSnapshot| s.reconfig_time.as_ps() / s.swaps;
        assert!(
            mean(&warm) < mean(&cold),
            "cache + differential transfers must shrink the mean swap cost: {} vs {}",
            mean(&warm),
            mean(&cold)
        );
        assert!(stats.words_sent < stats.words_full);
        assert!(
            stats.cache_hits >= 1,
            "repeat transitions replay: {stats:?}"
        );
        // The JSON carries the plane section only when it exists.
        assert!(warm.to_json().render().contains("\"configplane\""));
        assert!(!cold.to_json().render().contains("\"configplane\""));
        assert!(warm.to_string().contains("configplane"));
    }

    #[test]
    fn window_metrics_reset_per_call_and_lifetime_accumulates() {
        let mut svc = Service::new(ServiceConfig {
            policy: Policy::SwOnly,
            kernels: vec![Kernel::Jenkins],
            ..ServiceConfig::new(SystemKind::Bit32)
        });
        let first = svc.process(&burst(Kernel::Jenkins, 3, 128)).unwrap();
        let second = svc.process(&burst(Kernel::Jenkins, 2, 128)).unwrap();
        // The regression this guards: the second window used to report the
        // cumulative totals (5) instead of its own 2.
        assert_eq!(first.completed, 3);
        assert_eq!(second.completed, 2);
        assert!(second.sw_batches >= 1);
        let life = svc.lifetime();
        assert_eq!(life.completed, 5);
        assert_eq!(life.sw_items, 5);
        assert!(life.elapsed >= first.elapsed + second.elapsed);
    }
}
