//! The cluster front-end: streaming admission over a shard pool.

use std::sync::mpsc;

use rtr_apps::request::{Kernel, Request};
use rtr_core::SystemKind;
use rtr_service::{BootShare, Service, ServiceConfig};
use rtr_telemetry::Telemetry;
use rtr_trace::Tracer;
use vp2_sim::SimTime;

use crate::pool::WorkerPool;
use crate::route::{RoutePolicy, Router};
use crate::shard::Shard;
use crate::snapshot::ClusterSnapshot;

/// The worker pool ships services across threads; this fails to compile
/// if any layer of the stack regrows thread-bound state (the old
/// `Rc<RefCell<_>>` tracer ring was exactly that).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Service>();
};

/// Cluster construction parameters.
///
/// Each shard is described by its own [`ServiceConfig`], which
/// [`Cluster::boot`] hands to that shard's service unchanged except for
/// three pool-wide values the cluster owns:
///
/// * `kernels` — every shard accepts exactly [`ClusterConfig::kernels`],
///   so the router may place any admitted request on any shard;
/// * `trace` and `telemetry` — every shard journals and samples through
///   the cluster's handles, re-tagged with its own shard id
///   (`shard_base + id`, see [`Cluster::boot`]).
///
/// Everything else — system kind, fault plan, path and batch policies,
/// verification, quarantine and canary settings, retry ladder, bursts,
/// scrubbing and the configuration plane — is per shard.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One service config per shard (mixing 32- and 64-bit profiles, or
    /// any other per-service setting, is fine).
    pub shards: Vec<ServiceConfig>,
    /// Routing policy.
    pub policy: RoutePolicy,
    /// Kernels the cluster accepts (empty defaults to all six),
    /// overriding every shard's own `kernels`. Shards only register (and
    /// their cost models only ever probe) what is listed, so a narrow
    /// workload boots a narrow — and cheaper — pool.
    pub kernels: Vec<Kernel>,
    /// Admission-buffer bound per shard: a shard flushes its buffer into
    /// its machine once this many requests are waiting. Peak resident
    /// work is `shards × flush_depth` regardless of stream length.
    pub flush_depth: usize,
    /// Trace journal handle, fanned out to every shard in place of the
    /// shard's own `trace` (each shard's events carry its id). Disabled
    /// by default.
    pub trace: Tracer,
    /// Telemetry handle, fanned out to every shard like the tracer
    /// (each shard samples into its own series). Disabled by default;
    /// sampling is read-only, so snapshots are byte-identical with it
    /// on or off.
    pub telemetry: Telemetry,
    /// When set, each shard's merged metrics window keeps only this
    /// many of the most recent latency samples — constant memory for
    /// arbitrarily long runs. Counters and busy-time totals stay exact;
    /// cluster-level latency percentiles rank the retained windows
    /// instead of the full history. `None` (the default) keeps the
    /// exact unbounded series, byte-identical to prior builds.
    pub bounded_windows: Option<usize>,
    /// Compare shards on *stale* ready estimates instead of settling
    /// every in-flight flush per routing decision. Off (the default),
    /// load-estimating policies see exact state but serialize the pool;
    /// on, estimates lag by at most one in-flight flush and the pool
    /// stays fully pipelined. Either way equal seeds stay byte-identical
    /// at any thread count — the stale state is re-synced only at flush
    /// boundaries, which are deterministic in admission order.
    pub stale_estimates: bool,
    /// Worker threads for shard boots and flushes. `1` (the default)
    /// runs everything inline on the caller's thread; `> 1` spawns a
    /// worker pool and ships each shard's flush to it, joining a
    /// shard's outstanding flush only when a routing decision needs its
    /// live state or a second flush targets it. Equal seeds produce
    /// byte-identical snapshots and trace exports at any thread count.
    pub threads: usize,
}

impl ClusterConfig {
    /// `n` identical fault-free shards under the given policy, each a
    /// default [`ServiceConfig::new`] of `kind`.
    pub fn uniform(kind: SystemKind, n: usize, policy: RoutePolicy) -> ClusterConfig {
        ClusterConfig {
            shards: vec![ServiceConfig::new(kind); n],
            policy,
            kernels: Vec::new(),
            flush_depth: 8,
            trace: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
            bounded_windows: None,
            stale_estimates: false,
            threads: 1,
        }
    }
}

/// A pool of independent simulated machines behind one admission layer.
pub struct Cluster {
    shards: Vec<Shard>,
    router: Router,
    flush_depth: usize,
    /// Worker threads for shard flushes; `None` runs flushes inline.
    pool: Option<WorkerPool>,
    /// Requests currently resident across all admission buffers, kept
    /// incrementally (+1 on admit, −buffered on flush) so tracking the
    /// peak costs O(1) per request instead of a sum over every shard.
    resident: usize,
    peak_buffered: usize,
    admitted: u64,
}

impl Cluster {
    /// Boots every shard and an empty front-end. The shards share one
    /// [`BootShare`] for this call: each `(SystemKind, Kernel)` pair is
    /// fitted at most once, on the first read of its estimates by any
    /// shard, and each module image (system kind, component, origin,
    /// slot plan) is linked once, then every shard takes a clone.
    /// Each shard still builds and warms up its own machine. The share is
    /// dropped with the last shard boot, so a later `Cluster::new` boots
    /// from scratch.
    ///
    /// # Panics
    /// Panics if `config.shards` is empty or `flush_depth` is zero.
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster::boot(config, &BootShare::new(), 0)
    }

    /// Boots like [`Cluster::new`], but through `share`, so shards of
    /// several clusters (the pools of one federation) share fit cells
    /// and images too, and with shard `id` journaling and sampling as
    /// `shard_base + id`, so several clusters can share one journal
    /// registry with disjoint shard-id spaces. Each shard's
    /// [`ServiceConfig`] reaches its service unchanged except for the
    /// pool-wide `kernels`, `trace` and `telemetry` documented on
    /// [`ClusterConfig`].
    ///
    /// # Panics
    /// Panics if `config.shards` is empty or `flush_depth` is zero.
    pub fn boot(config: ClusterConfig, share: &BootShare, shard_base: u32) -> Cluster {
        assert!(
            !config.shards.is_empty(),
            "a cluster needs at least one shard"
        );
        assert!(config.flush_depth > 0, "flush_depth must be positive");
        let pool = (config.threads > 1).then(|| WorkerPool::new(config.threads));
        let service_configs: Vec<ServiceConfig> = config
            .shards
            .into_iter()
            .enumerate()
            .map(|(id, spec)| ServiceConfig {
                kernels: config.kernels.clone(),
                trace: config.trace.with_shard(shard_base + id as u32),
                telemetry: config.telemetry.with_shard(shard_base + id as u32),
                ..spec
            })
            .collect();
        // Boot every shard — build, link, warm up its machine.
        // Boots are deterministic per shard and the shared products are
        // pure functions of their keys, so with a pool they run in
        // parallel (a shard needing a product another shard is computing
        // waits for it); results are collected in shard order, so the
        // outcome is identical either way.
        let services: Vec<Box<Service>> = match &pool {
            Some(pool) => {
                let rxs: Vec<mpsc::Receiver<Box<Service>>> = service_configs
                    .into_iter()
                    .map(|cfg| {
                        let (tx, rx) = mpsc::channel();
                        let share = share.clone();
                        pool.submit(Box::new(move || {
                            let _ = tx.send(Box::new(Service::boot(cfg, &share)));
                        }));
                        rx
                    })
                    .collect();
                rxs.into_iter()
                    .map(|rx| {
                        rx.recv()
                            .expect("shard boot worker disappeared (panicked?)")
                    })
                    .collect()
            }
            None => service_configs
                .into_iter()
                .map(|cfg| Box::new(Service::boot(cfg, share)))
                .collect(),
        };
        let shards: Vec<Shard> = services
            .into_iter()
            .enumerate()
            .map(|(id, service)| Shard::new(id, service, config.bounded_windows))
            .collect();
        Cluster {
            shards,
            router: Router::new(config.policy, config.stale_estimates),
            flush_depth: config.flush_depth,
            pool,
            resident: 0,
            peak_buffered: 0,
            admitted: 0,
        }
    }

    /// The shard pool.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The active routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.router.policy()
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Largest number of requests ever resident in admission buffers at
    /// once — bounded by `shards × flush_depth` however long the stream.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Worker threads flushing shards (1 = inline, no pool).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::threads)
    }

    /// Requests resident in admission buffers right now — the O(1)
    /// backlog signal the federation's watermarks compare pools on.
    pub fn backlog(&self) -> usize {
        self.resident
    }

    /// Estimated queueing delay a request arriving at stream instant
    /// `arrival` would see on this cluster's least-backed shard. Reads
    /// only stale per-shard state (no joins), and is relative to the
    /// arrival rather than any machine clock, so estimates are
    /// comparable across clusters whose shards booted at different
    /// origins.
    pub fn backlog_estimate(&self, arrival: SimTime) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.backlog_stale(arrival))
            .min()
            .expect("at least one shard")
    }

    /// Cheapest snapshot-priced estimate of serving one `(kernel,
    /// bytes)` item anywhere on this cluster, amortizing a hardware
    /// path's measured reconfiguration EWMA over one flush batch. The
    /// federation's per-cluster per-kernel routing input: a Bit64 pool's
    /// cheap reconfiguration (and SHA-1's software-only fate on Bit32
    /// regions) shows up here, fed back from each shard's live
    /// measurements at every flush boundary.
    pub fn kernel_estimate(&self, kernel: Kernel, bytes: usize) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.estimate_for(kernel, bytes, self.flush_depth))
            .min()
            .expect("at least one shard")
    }

    /// Hands back up to `max` of the newest buffered requests from this
    /// cluster's most-backed-up shard (ties to the lowest id), fixing
    /// the admission counters — the requests are no longer this
    /// cluster's. The federation's work-stealing hook; touches no
    /// service state, so stealing never stalls a pipelined pool.
    pub fn give_back(&mut self, max: usize) -> Vec<(SimTime, Request)> {
        let donor = (0..self.shards.len())
            .max_by_key(|&i| (self.shards[i].buffered(), usize::MAX - i))
            .expect("at least one shard");
        let taken = self.shards[donor].take_back(max);
        self.resident -= taken.len();
        self.admitted -= taken.len() as u64;
        taken
    }

    /// Joins every shard and folds their window metrics into one
    /// accumulator — the raw latency series the federation pools across
    /// clusters (percentiles do not merge; samples do).
    pub fn fold_window(&mut self) -> rtr_service::Metrics {
        let mut all = rtr_service::Metrics::new();
        for shard in &mut self.shards {
            shard.join();
        }
        for shard in &self.shards {
            all.absorb(shard.window());
        }
        all
    }

    /// Routes one request into a shard's buffer and returns the shard id;
    /// flushes that shard if its buffer hit the bound (dispatching the
    /// flush to a worker thread when the cluster has a pool).
    pub fn admit(&mut self, arrival: SimTime, request: Request) -> usize {
        let id = self.router.pick(&mut self.shards, request.kernel());
        self.shards[id].admit(arrival, request);
        self.admitted += 1;
        self.resident += 1;
        self.peak_buffered = self.peak_buffered.max(self.resident);
        if self.shards[id].buffered() >= self.flush_depth {
            self.resident -= self.shards[id].buffered();
            self.shards[id].flush(self.pool.as_ref());
        }
        id
    }

    /// Flushes every shard's buffer into its machine and joins every
    /// in-flight flush — afterwards all shards are settled.
    pub fn flush_all(&mut self) {
        for shard in &mut self.shards {
            self.resident -= shard.buffered();
            shard.flush(self.pool.as_ref());
        }
        for shard in &mut self.shards {
            shard.join();
        }
    }

    /// Consumes an arrival stream to completion — the streaming admission
    /// path: requests are routed as they are pulled, so the schedule is
    /// never materialised — and returns the cluster snapshot.
    ///
    /// Arrival times must be nondecreasing (as [`TrafficStream`] yields
    /// them); each shard rejects out-of-order sub-schedules.
    ///
    /// [`TrafficStream`]: rtr_service::TrafficStream
    pub fn run(&mut self, stream: impl IntoIterator<Item = (SimTime, Request)>) -> ClusterSnapshot {
        for (arrival, request) in stream {
            self.admit(arrival, request);
        }
        self.flush_all();
        self.snapshot()
    }

    /// Aggregates per-shard windows into the cluster-level snapshot,
    /// joining any in-flight flushes first so every window is complete.
    /// Buffered-but-unflushed requests are not yet in any window; call
    /// [`Cluster::flush_all`] first (or use [`Cluster::run`]).
    pub fn snapshot(&mut self) -> ClusterSnapshot {
        for shard in &mut self.shards {
            shard.join();
        }
        ClusterSnapshot::aggregate(&self.shards, self.router.stats, self.peak_buffered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_apps::request::Kernel;
    use rtr_service::TrafficConfig;

    #[test]
    fn round_robin_spreads_and_counts_reconcile() {
        let mut cluster = Cluster::new(ClusterConfig {
            flush_depth: 4,
            ..ClusterConfig::uniform(SystemKind::Bit32, 2, RoutePolicy::RoundRobin)
        });
        let cfg = TrafficConfig {
            requests: 16,
            kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
            burst_percent: 0,
            ..TrafficConfig::default()
        };
        let snap = cluster.run(cfg.stream());
        assert_eq!(cluster.admitted(), 16);
        assert_eq!(snap.total.completed, 16);
        assert_eq!(snap.shards.len(), 2);
        // Round-robin alternates strictly when nothing is quarantined.
        assert_eq!(snap.shards[0].admitted, 8);
        assert_eq!(snap.shards[1].admitted, 8);
        assert_eq!(
            snap.total.completed,
            snap.shards.iter().map(|s| s.metrics.completed).sum::<u64>()
        );
        assert_eq!(snap.total.verify_failures, 0);
        assert!(snap.peak_buffered <= 2 * 4);
        assert!(snap.makespan >= snap.shards[0].elapsed);
        // JSON renders the whole breakdown.
        let json = snap.to_json().render();
        assert!(json.contains("\"shard_count\":2"));
        assert!(json.contains("\"latency_histogram\""));
    }

    #[test]
    fn affinity_pins_each_kernel_to_one_shard() {
        let mut cluster = Cluster::new(ClusterConfig {
            flush_depth: 4,
            ..ClusterConfig::uniform(SystemKind::Bit32, 2, RoutePolicy::KernelAffinity)
        });
        let cfg = TrafficConfig {
            requests: 24,
            kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
            burst_percent: 0,
            ..TrafficConfig::default()
        };
        let mut home: [Option<usize>; Kernel::ALL.len()] = [None; Kernel::ALL.len()];
        for (t, req) in cfg.stream() {
            let kernel = req.kernel();
            let id = cluster.admit(t, req);
            // Once a kernel has a home every later request follows it.
            match home[kernel.index()] {
                Some(expected) => assert_eq!(id, expected, "{kernel} moved shards"),
                None => home[kernel.index()] = Some(id),
            }
        }
        cluster.flush_all();
        let snap = cluster.snapshot();
        // Two kernels, two shards: each shard serves exactly one kernel,
        // so neither ever swaps after its first (warm-up or batch) load.
        for shard in &snap.shards {
            assert!(
                shard.metrics.swaps <= 1,
                "shard {} swapped {} times under affinity",
                shard.id,
                shard.metrics.swaps
            );
        }
        assert_eq!(snap.total.completed, 24);
    }

    #[test]
    fn boot_overrides_exactly_kernels_trace_and_telemetry() {
        // The spec asks for its own kernel and journals; the pool's
        // kernel set and handles win, re-tagged as `shard_base + id`.
        let cluster_kernels = vec![Kernel::Jenkins, Kernel::PatMatch];
        let own_trace = Tracer::enabled();
        let own_telemetry = Telemetry::enabled();
        let spec = ServiceConfig {
            kernels: vec![Kernel::Brightness],
            trace: own_trace.clone(),
            telemetry: own_telemetry.clone(),
            ..ServiceConfig::new(SystemKind::Bit32)
        };
        let tracer = Tracer::enabled();
        let telemetry = Telemetry::enabled();
        let base = 300;
        let mut cluster = Cluster::boot(
            ClusterConfig {
                shards: vec![spec; 2],
                kernels: cluster_kernels.clone(),
                flush_depth: 4,
                trace: tracer.clone(),
                telemetry: telemetry.clone(),
                ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::RoundRobin)
            },
            &BootShare::new(),
            base,
        );
        for shard in cluster.shards() {
            let service = shard.service();
            for kernel in Kernel::ALL {
                assert_eq!(
                    service.hardware_available(kernel),
                    cluster_kernels.contains(&kernel),
                    "shard {} {kernel}",
                    shard.id()
                );
            }
            let id = base + shard.id() as u32;
            assert_eq!(service.tracer().shard(), id);
            assert_eq!(service.telemetry().shard(), id);
        }
        let cfg = TrafficConfig {
            requests: 8,
            kernels: cluster_kernels,
            burst_percent: 0,
            ..TrafficConfig::default()
        };
        let snap = cluster.run(cfg.stream());
        assert_eq!(snap.total.completed, 8);
        let mut journaled: Vec<u32> = tracer.events().iter().map(|ev| ev.shard).collect();
        journaled.sort_unstable();
        journaled.dedup();
        assert_eq!(journaled, [base, base + 1]);
        assert!(
            !telemetry.rows().is_empty(),
            "shards sample the pool's series"
        );
        assert!(own_trace.is_empty() && own_telemetry.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_cluster_is_rejected() {
        let _ = Cluster::new(ClusterConfig {
            shards: Vec::new(),
            ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::RoundRobin)
        });
    }
}
