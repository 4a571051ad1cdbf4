//! The federation front-end: streaming admission over several clusters.

use rtr_apps::request::Request;
use rtr_cluster::{Cluster, ClusterConfig};
use rtr_service::BootShare;
use rtr_telemetry::{Gauge, Telemetry};
use rtr_trace::{EventKind, Tracer, FEDERATION_SHARD};
use vp2_sim::SimTime;

use crate::snapshot::{FederationSnapshot, PoolSnapshot};

/// Shard-id stride between pools in the shared trace journal: pool `p`
/// journals its shards as `p·100 + shard`, so per-pool journals stay
/// disjoint and a merged journal orders deterministically.
pub const POOL_STRIDE: u32 = 100;

/// How the federation picks a home pool for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedPolicy {
    /// Rotate over pools in admission order — the placement-blind
    /// baseline cost-model routing is measured against.
    RoundRobin,
    /// Score every pool as estimated queueing delay plus the cheapest
    /// per-item serving estimate for the request's kernel (hardware
    /// path priced with the pool's measured reconfiguration EWMA
    /// amortized over one flush batch), and take the minimum.
    CostModel,
}

impl FedPolicy {
    /// Stable lowercase name (JSON, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            FedPolicy::RoundRobin => "round_robin",
            FedPolicy::CostModel => "cost_model",
        }
    }
}

impl std::fmt::Display for FedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Federation construction parameters.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// One cluster config per pool (heterogeneous mixes welcome — that
    /// is the point). The federation replaces each pool's `trace` and
    /// `telemetry` handles with its own and boots pool `p` with shard-id
    /// base `p · POOL_STRIDE`, so all pools share one journal registry
    /// with disjoint shard-id spaces.
    pub pools: Vec<ClusterConfig>,
    /// Home-pool selection policy.
    pub policy: FedPolicy,
    /// Backlog (buffered requests on the home pool) at which
    /// deadline-lane traffic starts diverting to a lighter pool.
    /// Best-effort traffic tolerates twice this before diverting — the
    /// lane ordering the shed mechanism exists for.
    pub shed_watermark: usize,
    /// Backlog at which bulk work stealing engages against the pool.
    pub steal_watermark: usize,
    /// Requests moved per steal event.
    pub steal_batch: usize,
    /// Shared trace journal. The federation's own decisions journal
    /// under [`FEDERATION_SHARD`]; pool `p`'s shards under
    /// `p · POOL_STRIDE + shard`.
    pub trace: Tracer,
    /// Shared telemetry registry, fanned out the same way the journal
    /// is: the federation samples its own admission-plane gauges under
    /// [`FEDERATION_SHARD`]; pool `p`'s shards sample under
    /// `p · POOL_STRIDE + shard`. Disabled by default.
    pub telemetry: Telemetry,
}

impl FederationConfig {
    /// Cost-model routing over the given pools with moderate watermarks.
    pub fn new(pools: Vec<ClusterConfig>) -> FederationConfig {
        FederationConfig {
            pools,
            policy: FedPolicy::CostModel,
            shed_watermark: 12,
            steal_watermark: 24,
            steal_batch: 4,
            trace: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Several clusters behind one streaming admission loop.
pub struct Federation {
    pools: Vec<Cluster>,
    policy: FedPolicy,
    shed_watermark: usize,
    steal_watermark: usize,
    steal_batch: usize,
    tracer: Tracer,
    telemetry: Telemetry,
    rr_next: usize,
    admitted: u64,
    routed: Vec<u64>,
    shed_in: Vec<u64>,
    shed_out: Vec<u64>,
    stolen_in: Vec<u64>,
    stolen_out: Vec<u64>,
    steal_events: u64,
    stolen: u64,
    sheds: u64,
}

impl Federation {
    /// Boots every pool, each with its shard-id base and the shared
    /// journal installed: inline one after another, or concurrently when
    /// any pool has worker threads. All pools boot through one
    /// [`BootShare`], so across the whole federation each
    /// `(SystemKind, Kernel)` pair is fitted at most once and each module
    /// image (system kind, component, origin, slot plan) is linked once;
    /// every shard still builds and warms up its own machine and keeps its
    /// own cost-model clone. The share is dropped when this call returns.
    ///
    /// # Panics
    /// Panics if `config.pools` is empty, a pool has more than
    /// [`POOL_STRIDE`] shards, or `steal_batch` is zero.
    pub fn new(config: FederationConfig) -> Federation {
        assert!(
            !config.pools.is_empty(),
            "a federation needs at least one pool"
        );
        assert!(config.steal_batch > 0, "steal_batch must be positive");
        let n = config.pools.len();
        let pooled = config.pools.iter().any(|cfg| cfg.threads > 1);
        let configs: Vec<ClusterConfig> = config
            .pools
            .into_iter()
            .enumerate()
            .map(|(p, mut cfg)| {
                assert!(
                    cfg.shards.len() <= POOL_STRIDE as usize,
                    "pool {p} has {} shards; at most {POOL_STRIDE} fit a shard-id slot",
                    cfg.shards.len()
                );
                cfg.trace = config.trace.clone();
                cfg.telemetry = config.telemetry.clone();
                cfg
            })
            .collect();
        // With worker threads the pools boot concurrently too, so one
        // pool's image links never wait for another's. Every shard's boot
        // is independent of the order, so the federation is the same.
        let share = BootShare::new();
        let boot =
            |(p, cfg): (usize, ClusterConfig)| Cluster::boot(cfg, &share, p as u32 * POOL_STRIDE);
        let pools: Vec<Cluster> = if pooled {
            std::thread::scope(|scope| {
                let boots: Vec<_> = configs
                    .into_iter()
                    .enumerate()
                    .map(|pool| scope.spawn(move || boot(pool)))
                    .collect();
                boots
                    .into_iter()
                    .map(|boot| boot.join().expect("pool boot panicked"))
                    .collect()
            })
        } else {
            configs.into_iter().enumerate().map(boot).collect()
        };
        Federation {
            pools,
            policy: config.policy,
            shed_watermark: config.shed_watermark.max(1),
            steal_watermark: config.steal_watermark.max(1),
            steal_batch: config.steal_batch,
            tracer: config.trace.with_shard(FEDERATION_SHARD),
            telemetry: config.telemetry.with_shard(FEDERATION_SHARD),
            rr_next: 0,
            admitted: 0,
            routed: vec![0; n],
            shed_in: vec![0; n],
            shed_out: vec![0; n],
            stolen_in: vec![0; n],
            stolen_out: vec![0; n],
            steal_events: 0,
            stolen: 0,
            sheds: 0,
        }
    }

    /// The pools, in id order.
    pub fn pools(&self) -> &[Cluster] {
        &self.pools
    }

    /// The home-pool selection policy.
    pub fn policy(&self) -> FedPolicy {
        self.policy
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Steal events fired so far (each moves up to `steal_batch`).
    pub fn steal_events(&self) -> u64 {
        self.steal_events
    }

    /// Requests moved by stealing so far.
    pub fn stolen(&self) -> u64 {
        self.stolen
    }

    /// Requests diverted off their home pool by lane-aware shedding.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Routes one request to a pool — home pick, lane-aware shed check,
    /// admission, then a bounded steal check — and returns the pool id
    /// it landed on. Every decision reads only O(1) backlog counters
    /// and stale cost snapshots, so no in-flight flush is ever settled
    /// here and the outcome is identical at any thread count.
    pub fn admit(&mut self, arrival: SimTime, request: Request) -> usize {
        let kernel = request.kernel();
        let module = kernel.module_name();
        let deadline = request.lane.deadline.is_some();
        let (home, estimate) = self.pick_home(arrival, &request);
        // Lane-aware shedding: a backed-up home pool loses its deadline
        // traffic first. Best-effort work tolerates twice the watermark
        // before giving up its placement, so bulk affinity survives
        // short backlogs while deadline tails stay flat.
        let divert_at = if deadline {
            self.shed_watermark
        } else {
            self.shed_watermark * 2
        };
        let mut chosen = home;
        if self.pools.len() > 1 && self.pools[home].backlog() >= divert_at {
            let target = self.least_backlogged(home);
            if self.pools[target].backlog() < self.pools[home].backlog() {
                chosen = target;
                self.sheds += 1;
                self.shed_out[home] += 1;
                self.shed_in[target] += 1;
                if self.tracer.on() {
                    self.tracer.emit(
                        arrival,
                        EventKind::FedShed {
                            from_pool: home as u32,
                            to_pool: target as u32,
                            kernel: module,
                            deadline,
                        },
                    );
                }
            }
        }
        if self.tracer.on() {
            self.tracer.emit(
                arrival,
                EventKind::FedRoute {
                    pool: chosen as u32,
                    kernel: module,
                    estimate,
                },
            );
        }
        self.pools[chosen].admit(arrival, request);
        self.routed[chosen] += 1;
        self.admitted += 1;
        self.maybe_steal(arrival, chosen);
        // The admission-plane sample, stamped with the stream instant
        // (the federation has no machine clock of its own). Cumulative
        // counters become per-second rates in the handle; the tick grid
        // bounds the emission however dense the stream.
        if self.telemetry.on() {
            let backlog: usize = self.pools.iter().map(Cluster::backlog).sum();
            self.telemetry.sample(
                arrival,
                "federation",
                &[
                    Gauge::value("backlog_total", backlog as f64),
                    Gauge::rate("admitted_per_s", self.admitted as f64),
                    Gauge::rate("stolen_per_s", self.stolen as f64),
                    Gauge::rate("sheds_per_s", self.sheds as f64),
                ],
            );
        }
        chosen
    }

    /// Home-pool pick plus the estimate it was based on (zero for the
    /// estimate-free round-robin baseline).
    fn pick_home(&mut self, arrival: SimTime, request: &Request) -> (usize, SimTime) {
        match self.policy {
            FedPolicy::RoundRobin => {
                let id = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.pools.len();
                (id, SimTime::ZERO)
            }
            FedPolicy::CostModel => {
                let kernel = request.kernel();
                let bytes = request.payload_bytes();
                let mut best = 0;
                let mut best_score = SimTime::ZERO;
                for (p, pool) in self.pools.iter().enumerate() {
                    let score =
                        pool.backlog_estimate(arrival) + pool.kernel_estimate(kernel, bytes);
                    if p == 0 || score < best_score {
                        best = p;
                        best_score = score;
                    }
                }
                (best, best_score)
            }
        }
    }

    /// The least-backlogged pool other than `except` (ties to the
    /// lowest id).
    fn least_backlogged(&self, except: usize) -> usize {
        (0..self.pools.len())
            .filter(|&p| p != except)
            .min_by_key(|&p| (self.pools[p].backlog(), p))
            .expect("more than one pool")
    }

    /// Bounded work stealing: when `from`'s backlog crosses the steal
    /// watermark, move up to `steal_batch` of its newest buffered
    /// requests to the least-backlogged pool — but only if the move
    /// strictly improves balance (no ping-pong). The watermark and that
    /// balance rule are the bounds.
    fn maybe_steal(&mut self, arrival: SimTime, from: usize) {
        if self.pools.len() < 2 || self.pools[from].backlog() < self.steal_watermark {
            return;
        }
        let to = self.least_backlogged(from);
        if self.pools[to].backlog() + self.steal_batch > self.pools[from].backlog() {
            return;
        }
        let moved = self.pools[from].give_back(self.steal_batch);
        if moved.is_empty() {
            return;
        }
        let count = moved.len() as u64;
        // Stolen arrivals predate the current stream instant; the target
        // pool's sorted admission buffers put them back in arrival order.
        for (stolen_arrival, request) in moved {
            self.pools[to].admit(stolen_arrival, request);
        }
        self.steal_events += 1;
        self.stolen += count;
        self.stolen_out[from] += count;
        self.stolen_in[to] += count;
        if self.tracer.on() {
            self.tracer.emit(
                arrival,
                EventKind::FedSteal {
                    from_pool: from as u32,
                    to_pool: to as u32,
                    moved: count as u32,
                },
            );
        }
    }

    /// Flushes and settles every pool.
    pub fn flush_all(&mut self) {
        for pool in &mut self.pools {
            pool.flush_all();
        }
    }

    /// Consumes an arrival stream to completion and returns the
    /// federated snapshot.
    pub fn run(
        &mut self,
        stream: impl IntoIterator<Item = (SimTime, Request)>,
    ) -> FederationSnapshot {
        for (arrival, request) in stream {
            self.admit(arrival, request);
        }
        self.flush_all();
        self.snapshot()
    }

    /// Settles every pool and aggregates: per-pool cluster snapshots
    /// plus federation-level pooled metrics (the raw latency series
    /// merge across pools; percentiles re-rank over the union) over the
    /// federated makespan (the slowest pool's).
    pub fn snapshot(&mut self) -> FederationSnapshot {
        let mut pool_snaps = Vec::with_capacity(self.pools.len());
        let mut pooled = rtr_service::Metrics::new();
        for (p, pool) in self.pools.iter_mut().enumerate() {
            let cluster = pool.snapshot();
            pooled.absorb(&pool.fold_window());
            pool_snaps.push(PoolSnapshot {
                id: p,
                routed: self.routed[p],
                shed_in: self.shed_in[p],
                shed_out: self.shed_out[p],
                stolen_in: self.stolen_in[p],
                stolen_out: self.stolen_out[p],
                cluster,
            });
        }
        let makespan = pool_snaps
            .iter()
            .map(|s| s.cluster.makespan)
            .max()
            .expect("at least one pool");
        FederationSnapshot {
            policy: self.policy,
            total: pooled.snapshot(makespan),
            makespan,
            admitted: self.admitted,
            steal_events: self.steal_events,
            stolen: self.stolen,
            sheds: self.sheds,
            pools: pool_snaps,
        }
    }
}
