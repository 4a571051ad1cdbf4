//! One simulated machine of the pool.
//!
//! A shard wraps a complete [`Service`] — its own PPC405, buses, dock,
//! dynamic region and scheduler — behind a bounded admission buffer.
//! The cluster front-end routes requests into the buffer; when it fills
//! (or the stream ends) the shard flushes it as one open-loop schedule
//! into the service and merges the resulting window metrics, so the
//! full cluster workload never exists in memory at once.
//!
//! # Parallel flushes
//!
//! With a worker pool, `Shard::flush` ships the service (and the
//! drained schedule) to a worker thread and keeps routing; the shard is
//! then *in flight* until `Shard::join` receives the service back
//! along with the window it produced. Determinism rests on a single
//! discipline — **join before read**: any accessor that needs live
//! service state (`ready_at`, a `holds` fallback to the resident
//! module, `sheds` on a fault-injected shard, a second flush) first
//! joins the outstanding flush. Because a flush's outcome depends only
//! on the service state and the schedule — never on coordinator timing
//! — the joined state is byte-identical to what inline execution would
//! have produced, at any thread count.

use std::sync::mpsc;

use rtr_apps::request::{Kernel, Request};
use rtr_service::{CostModel, Metrics, Service};
use rtr_telemetry::{Gauge, Telemetry};
use rtr_trace::EventKind;
use vp2_sim::SimTime;

use crate::pool::WorkerPool;

/// What a flush worker sends back: the service it borrowed and the
/// window metrics the schedule produced.
type FlushResult = (Box<Service>, Metrics);

/// One machine of the cluster: a service plus its admission buffer.
pub struct Shard {
    id: usize,
    /// The service, when settled; `None` while a flush is in flight.
    service: Option<Box<Service>>,
    /// The in-flight flush's result channel, if any.
    inflight: Option<mpsc::Receiver<FlushResult>>,
    origin: SimTime,
    buffer: Vec<(SimTime, Request)>,
    /// Buffered requests per kernel, kept incrementally on admit/flush
    /// so `holds` answers in O(1) instead of scanning the buffer per
    /// routing decision.
    kernel_buffered: [u32; Kernel::ALL.len()],
    /// Cost-model estimate of the buffered work, computed lazily at
    /// `ready_at` (after any join, so it sees the post-flush cost
    /// model — the same model inline execution would have used) and
    /// cached until the next admit or flush.
    cost_cache: Option<SimTime>,
    /// [`Service::can_quarantine`], read once at boot: a shard that
    /// cannot quarantine answers `sheds` without settling an in-flight
    /// flush.
    can_quarantine: bool,
    window: Metrics,
    admitted: u64,
    /// Clone of the service's cost model, re-synced at deterministic
    /// points only (boot and each flush boundary, post-join — where the
    /// service state is byte-identical whether flushes ran inline or on
    /// workers). Stale load estimates and federation routing price work
    /// against this snapshot without ever settling an in-flight flush.
    cost_snapshot: CostModel,
    /// Predicted machine-clock instant at which everything shipped to
    /// the service so far (all past flushes) completes. Updated only at
    /// flush boundaries; between them it drifts by at most one flush's
    /// misprediction — the "bounded staleness" the stale router mode
    /// trades for full pipelining.
    stale_busy_until: SimTime,
    /// Snapshot-priced cost of the current buffer, kept incrementally
    /// on admit and rebuilt on flush/steal.
    stale_buffered_cost: SimTime,
    /// Payload bytes currently buffered, kept incrementally like
    /// `kernel_buffered` — the `buffered_bytes` telemetry gauge.
    buffered_bytes: u64,
    /// The shard's telemetry handle (cloned from the service's, so both
    /// write the same per-shard series).
    telemetry: Telemetry,
}

impl Shard {
    /// Wraps a freshly booted service as shard `id`. With
    /// `bounded_window` set, the shard's merged window keeps only that
    /// many of the most recent latency samples (counters stay exact) —
    /// the constant-memory mode for very long runs.
    pub(crate) fn new(id: usize, service: Box<Service>, bounded_window: Option<usize>) -> Shard {
        let can_quarantine = service.can_quarantine();
        let origin = service.now();
        let cost_snapshot = service.cost_model().clone();
        let telemetry = service.telemetry().clone();
        Shard {
            id,
            service: Some(service),
            inflight: None,
            origin,
            buffer: Vec::new(),
            kernel_buffered: [0; Kernel::ALL.len()],
            cost_cache: None,
            can_quarantine,
            window: bounded_window.map_or_else(Metrics::new, Metrics::bounded),
            admitted: 0,
            cost_snapshot,
            stale_busy_until: origin,
            stale_buffered_cost: SimTime::ZERO,
            buffered_bytes: 0,
            telemetry,
        }
    }

    /// Shard index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The underlying service (cost model, manager, quarantine state).
    ///
    /// # Panics
    /// Panics while a flush is in flight on a worker thread — settle the
    /// cluster first ([`flush_all`]/[`snapshot`] join every shard; with
    /// `threads <= 1` shards are always settled).
    ///
    /// [`flush_all`]: crate::Cluster::flush_all
    /// [`snapshot`]: crate::Cluster::snapshot
    pub fn service(&self) -> &Service {
        self.service
            .as_deref()
            .expect("shard has a flush in flight; settle the cluster before reading live state")
    }

    /// Requests routed to this shard so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests currently buffered (admitted but not yet flushed).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Simulated time this shard has spent serving since cluster boot.
    pub fn elapsed(&self) -> SimTime {
        self.service().now() - self.origin
    }

    /// Estimated instant this shard would finish everything it has been
    /// given: its machine clock plus the cost-model estimate of the
    /// buffered (not yet flushed) work. The least-loaded router compares
    /// shards on this. Panics while a flush is in flight (see
    /// [`Shard::service`]); the router uses the joining variant.
    pub fn ready_at(&self) -> SimTime {
        let service = self.service();
        service.now() + buffered_cost(&self.buffer, service)
    }

    /// Does this shard's dynamic region already hold — or will it, once
    /// the buffer flushes — the kernel's module? Panics while a flush is
    /// in flight (see [`Shard::service`]).
    pub fn holds(&self, kernel: Kernel) -> bool {
        self.kernel_buffered[kernel.index()] > 0
            || self.service().manager().loaded() == Some(kernel.module_name())
    }

    /// Is the kernel's hardware path on this shard currently barred by
    /// an active quarantine? Fault-free shards answer `false` without
    /// touching live state; fault-injected shards panic while a flush
    /// is in flight (see [`Shard::service`]).
    pub fn sheds(&self, kernel: Kernel) -> bool {
        self.can_quarantine && self.service().quarantined(kernel)
    }

    /// Waits for the outstanding flush (if any) and folds its window in.
    pub(crate) fn join(&mut self) {
        if let Some(rx) = self.inflight.take() {
            let (service, window) = rx
                .recv()
                .expect("shard flush worker disappeared (panicked?)");
            self.window.absorb(&window);
            self.sample_window(&service, &window);
            self.service = Some(service);
        }
    }

    /// Telemetry `"window"` row at the absorb point, stamped with the
    /// post-window machine clock. Inline and pooled flushes reach this
    /// with byte-identical `(service, window)` state — inline right
    /// after processing, pooled at [`Shard::join`] — and a flush always
    /// joins before emitting its own rows, so the per-shard emission
    /// order is the same at any thread count.
    fn sample_window(&self, service: &Service, window: &Metrics) {
        if self.telemetry.on() {
            self.telemetry.sample(
                service.now(),
                "window",
                &[
                    Gauge::value("window_items", window.completed() as f64),
                    Gauge::value("window_swaps", window.swaps() as f64),
                ],
            );
        }
    }

    /// `ready_at` for the router: joins any in-flight flush first, and
    /// caches the buffered-cost estimate until the buffer changes.
    /// Post-join the estimate reads the same cost model inline
    /// execution would have seen — the model only mutates during this
    /// shard's own flushes, and buffered items never span one.
    pub(crate) fn ready_at_sync(&mut self) -> SimTime {
        self.join();
        let service = self.service.as_deref().expect("joined");
        let cost = *self
            .cost_cache
            .get_or_insert_with(|| buffered_cost(&self.buffer, service));
        service.now() + cost
    }

    /// `ready_at` from stale state only: the last flush boundary's
    /// predicted completion instant plus the snapshot-priced buffer.
    /// Never joins, never blocks — the stale-estimates router mode and
    /// the federation front-end read load through this, so a pool stays
    /// fully pipelined while estimates lag reality by at most one
    /// in-flight flush.
    pub(crate) fn ready_at_stale(&self) -> SimTime {
        self.stale_busy_until + self.stale_buffered_cost
    }

    /// Estimated queueing delay a request arriving at stream instant
    /// `arrival` would see ahead of it on this shard — the stale ready
    /// instant relative to the arrival mapped onto this machine's
    /// timeline. Comparable across shards of *different* clusters, whose
    /// boot origins differ.
    pub(crate) fn backlog_stale(&self, arrival: SimTime) -> SimTime {
        self.ready_at_stale().saturating_sub(self.origin + arrival)
    }

    /// Snapshot-priced estimate of serving one `(kernel, bytes)` item on
    /// this shard: the cheaper of the software path and the hardware
    /// path with the measured reconfiguration EWMA amortized over a
    /// flush batch of `amortize` requests. Reads only the cost snapshot,
    /// so it never settles an in-flight flush.
    pub(crate) fn estimate_for(&self, kernel: Kernel, bytes: usize, amortize: usize) -> SimTime {
        let sw = self.cost_snapshot.sw_estimate(kernel, bytes);
        match self.cost_snapshot.hw_estimate(kernel, bytes) {
            Some(hw) => {
                let share = SimTime::from_ps(
                    self.cost_snapshot.reconfig_estimate_for(kernel).as_ps()
                        / amortize.max(1) as u64,
                );
                sw.min(hw + share)
            }
            None => sw,
        }
    }

    /// `holds` for the router: the O(1) buffered-count check never needs
    /// live state; only the fallback to the resident module joins.
    pub(crate) fn holds_sync(&mut self, kernel: Kernel) -> bool {
        debug_assert_eq!(
            self.kernel_buffered[kernel.index()] > 0,
            self.buffer.iter().any(|(_, r)| r.kernel() == kernel),
            "incremental per-kernel buffered count out of sync with the buffer"
        );
        if self.kernel_buffered[kernel.index()] > 0 {
            return true;
        }
        self.join();
        let service = self.service.as_deref().expect("joined");
        service.manager().loaded() == Some(kernel.module_name())
    }

    /// `sheds` for the router: a shard that cannot quarantine (no fault
    /// injection) answers without joining, which is what keeps
    /// fault-free pools fully pipelined — the healthy-shard probe runs
    /// on every admission for every policy.
    pub(crate) fn sheds_sync(&mut self, kernel: Kernel) -> bool {
        if !self.can_quarantine {
            return false;
        }
        self.join();
        let service = self.service.as_deref().expect("joined");
        service.quarantined(kernel)
    }

    /// Buffers one request that arrived at absolute time `arrival`.
    /// Trace buffer events are stamped at flush time (when the
    /// authoritative next-admission id is in hand and no worker owns
    /// the shard's journal), so admission touches no service state.
    ///
    /// The buffer is kept sorted by arrival. A monotone stream appends
    /// in O(1); only re-admitted stolen work (whose arrivals predate the
    /// buffer tail) pays the ordered insert — which is what lets a
    /// flush's schedule stay monotone after cross-cluster stealing.
    pub(crate) fn admit(&mut self, arrival: SimTime, request: Request) {
        self.kernel_buffered[request.kernel().index()] += 1;
        self.cost_cache = None;
        self.stale_buffered_cost += item_cost(&self.cost_snapshot, &request);
        self.buffered_bytes += request.payload_bytes() as u64;
        let at = if self.buffer.last().is_none_or(|(t, _)| *t <= arrival) {
            self.buffer.len()
        } else {
            // Insert after every equal arrival so admission order is
            // preserved among ties.
            self.buffer.partition_point(|(t, _)| *t <= arrival)
        };
        self.buffer.insert(at, (arrival, request));
        self.admitted += 1;
    }

    /// Hands back up to `max` of the newest buffered requests (the
    /// buffer tail — the work least committed to this shard), fixing the
    /// incremental counters. The federation's work-stealing hook; the
    /// caller re-admits the returned `(arrival, request)` pairs
    /// elsewhere. Touches no service state.
    pub(crate) fn take_back(&mut self, max: usize) -> Vec<(SimTime, Request)> {
        let n = max.min(self.buffer.len());
        let taken: Vec<(SimTime, Request)> = self.buffer.split_off(self.buffer.len() - n);
        for (_, request) in &taken {
            self.kernel_buffered[request.kernel().index()] -= 1;
            self.buffered_bytes -= request.payload_bytes() as u64;
        }
        self.admitted -= taken.len() as u64;
        self.cost_cache = None;
        // Rebuild rather than subtract: the snapshot may have advanced
        // since these items were priced in, and drifting the accumulator
        // negative-ward across many steals would corrupt the estimate.
        self.stale_buffered_cost = self
            .buffer
            .iter()
            .map(|(_, request)| item_cost(&self.cost_snapshot, request))
            .sum();
        taken
    }

    /// Flushes the buffer into the service as one open-loop schedule —
    /// inline without a pool, on a worker thread with one — after
    /// joining any previous flush of this shard. Stream time is mapped
    /// onto the machine clock via the shard's boot origin (stream
    /// instant 0 is the moment the shard finished booting), so
    /// open-loop pacing gaps survive the flush: the machine idles
    /// between arrivals it has kept up with. Arrivals the machine has
    /// already run past (it was busy, or they sat in the admission
    /// buffer) are served immediately, and the wait shows up as
    /// latency, exactly as on a single machine.
    pub(crate) fn flush(&mut self, pool: Option<&WorkerPool>) {
        if self.buffer.is_empty() {
            return;
        }
        self.join();
        let mut service = self.service.take().expect("joined");
        let origin = self.origin;
        // Re-sync the stale-estimate state while the settled service is
        // in hand. Both inputs (the post-join cost model and clock) are
        // byte-identical across inline and pooled execution, so every
        // stale read between here and the next flush is too. The
        // prediction: the machine resumes at its clock or the last
        // arrival (whichever is later — open-loop gaps idle the machine)
        // and then works through the whole buffer.
        self.cost_snapshot = service.cost_model().clone();
        let last_arrival = origin + self.buffer.last().expect("non-empty buffer").0;
        self.stale_busy_until =
            service.now().max(last_arrival) + buffered_cost(&self.buffer, &service);
        self.stale_buffered_cost = SimTime::ZERO;
        // The "buffer" sample is the coordinator's: taken post-join
        // (no worker owns this shard's series) and pre-drain, stamped
        // with the settled machine clock — all inputs byte-identical
        // across inline and pooled execution.
        if self.telemetry.on() {
            self.telemetry.sample(
                service.now(),
                "buffer",
                &[
                    Gauge::value("buffer_depth", self.buffer.len() as f64),
                    Gauge::value("buffered_bytes", self.buffered_bytes as f64),
                ],
            );
        }
        self.buffered_bytes = 0;
        let tracer = service.tracer().clone();
        if tracer.on() {
            // Buffer events, stamped with each request's machine-clock
            // arrival and the id the service *will* assign on flush —
            // read from the authoritative admission counter, so buffer
            // events can never desync from the span ids.
            for (id, (arrival, request)) in (service.next_request_id()..).zip(&self.buffer) {
                let machine_arrival = origin + *arrival;
                tracer.emit(
                    machine_arrival,
                    EventKind::RequestBuffer {
                        id,
                        kernel: request.kernel().module_name(),
                        arrival: machine_arrival,
                    },
                );
            }
            tracer.emit(
                service.now(),
                EventKind::BufferFlush {
                    count: self.buffer.len() as u32,
                },
            );
        }
        let schedule: Vec<(SimTime, Request)> = self
            .buffer
            .drain(..)
            .map(|(arrival, request)| (origin + arrival, request))
            .collect();
        self.kernel_buffered = [0; Kernel::ALL.len()];
        self.cost_cache = None;
        match pool {
            Some(pool) => {
                let (tx, rx) = mpsc::channel();
                pool.submit(Box::new(move || {
                    let window = service
                        .process_window_at(&schedule)
                        .expect("stream arrivals are monotone");
                    let _ = tx.send((service, window));
                }));
                self.inflight = Some(rx);
            }
            None => {
                let window = service
                    .process_window_at(&schedule)
                    .expect("stream arrivals are monotone");
                self.window.absorb(&window);
                self.sample_window(&service, &window);
                self.service = Some(service);
            }
        }
    }

    /// The shard's merged window metrics since cluster boot.
    pub(crate) fn window(&self) -> &Metrics {
        &self.window
    }
}

/// Optimistic cost-model estimate of the buffered work: per item the
/// cheaper path, ignoring swaps (the same per-item estimate admission
/// used to accumulate incrementally — computed lazily now so it never
/// needs the service while a flush is in flight).
fn buffered_cost(buffer: &[(SimTime, Request)], service: &Service) -> SimTime {
    let cost = service.cost_model();
    buffer
        .iter()
        .map(|(_, request)| item_cost(cost, request))
        .sum()
}

/// One request's optimistic estimate — the cheaper path, ignoring swaps
/// — against any cost model (live or a stale snapshot).
fn item_cost(cost: &CostModel, request: &Request) -> SimTime {
    let kernel = request.kernel();
    let bytes = request.payload_bytes();
    let sw = cost.sw_estimate(kernel, bytes);
    match cost.hw_estimate(kernel, bytes) {
        Some(hw) => hw.min(sw),
        None => sw,
    }
}
