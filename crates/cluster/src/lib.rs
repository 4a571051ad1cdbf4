//! # rtr-cluster — sharded multi-machine reconfiguration service
//!
//! The paper's two systems are single-CPU, single-dynamic-region designs;
//! this crate scales them out. A [`Cluster`] owns a pool of N independent
//! simulated machines ([`Shard`]s — each a full [`rtr_service::Service`]
//! with its own PPC405, buses, dock and dynamic region, built from either
//! system profile or a mix), fronted by a streaming admission layer:
//! requests are consumed from a lazy `Iterator` and routed one at a time,
//! so the full schedule is never materialised — peak resident work is
//! bounded by `shards × flush_depth`.
//!
//! Routing is pluggable ([`RoutePolicy`]):
//!
//! * **round-robin** — spray requests across shards in admission order;
//! * **least-loaded** — route to the shard whose estimated ready time
//!   (machine clock + cost-model estimate of its buffered work) is
//!   earliest;
//! * **kernel-affinity** — route to the shard whose dynamic region
//!   already holds (or is about to hold) the request's kernel, falling
//!   back to least-loaded for first-seen kernels. Keeping a kernel
//!   resident on its home shard minimises ICAP swap traffic, which
//!   dominates everything else the region does.
//!
//! Every policy is quarantine-aware: a shard whose hardware path for the
//! kernel is quarantined (PR 2's `ModuleHealth` machinery) sheds that
//! kernel's load to healthy shards until its half-open cooldown expires.
//!
//! Per-shard window metrics merge into a cluster-level
//! [`ClusterSnapshot`] — makespan, total throughput, per-shard
//! utilization and swap counts, and the cross-shard latency distribution
//! (full percentile ladder + histogram buckets) — with JSON export.
//!
//! ## Parallel execution
//!
//! With [`ClusterConfig::threads`] > 1, shard flushes run on a small
//! fixed pool of OS worker threads: the coordinator keeps routing
//! single-threaded, ships a shard's buffered schedule to a worker at
//! flush depth, and joins the outstanding flush only when a routing
//! decision needs that shard's live state (or a second flush targets
//! it). Because a flush's outcome depends only on service state and the
//! schedule — never on coordinator timing — equal seeds produce
//! byte-identical snapshots and trace journals at any thread count.

#![warn(missing_docs)]

pub mod cluster;
mod pool;
pub mod route;
pub mod shard;
pub mod snapshot;

pub use cluster::{Cluster, ClusterConfig};
pub use route::{RoutePolicy, RoutingStats};
pub use shard::Shard;
pub use snapshot::{ClusterSnapshot, ShardSnapshot};

/// A shard is a full [`rtr_service::Service`], so it is built from that
/// service's own [`ServiceConfig`](rtr_service::ServiceConfig), and code
/// in this workspace writes `ServiceConfig`. The alias survives only
/// because the standalone benchmark package builds fleet shards as
/// `ShardSpec::new(kind)`.
pub use rtr_service::ServiceConfig as ShardSpec;
