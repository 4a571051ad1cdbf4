//! # rtr-federation — multi-cluster front-end tier
//!
//! The paper's central measurement is that the 32-bit and 64-bit
//! reconfiguration datapaths differ by roughly an order of magnitude in
//! transfer cost — which makes *where* a kernel runs as important as
//! *whether* it runs in hardware. One [`Cluster`](rtr_cluster::Cluster)
//! is one machine pool; this crate adds the placement tier above it: a
//! [`Federation`] drives several heterogeneous pools (mixed `Bit32` /
//! `Bit64` shard specs per cluster) from one streaming admission loop.
//!
//! Three mechanisms, all decided per request from O(1) counters and
//! stale per-shard cost snapshots (never settling an in-flight flush,
//! so pools stay fully pipelined and equal seeds give byte-identical
//! results at any thread count):
//!
//! * **Cost-model routing** ([`FedPolicy::CostModel`]) — each pool is
//!   scored as *estimated queueing delay* + *cheapest per-item serving
//!   estimate* for the request's kernel, where the serving estimate
//!   amortizes that pool's measured reconfiguration EWMA (fed back from
//!   each shard's live cost model at every flush boundary) over one
//!   flush batch. A Bit64 pool's cheap reconfiguration — and SHA-1's
//!   software-only fate on Bit32 regions — steer placement exactly as
//!   the paper's numbers say they should.
//! * **Lane-aware shedding** — when a request's home pool is backed up
//!   past the shed watermark, deadline-lane traffic diverts to the
//!   least-backlogged pool *before* best-effort traffic does (best
//!   effort tolerates twice the watermark), so deadline tails stay flat
//!   while bulk work keeps its placement affinity.
//! * **Bounded work stealing** — when a pool's backlog crosses the
//!   steal watermark, up to [`FederationConfig::steal_batch`] of its
//!   newest buffered requests move to the least-backlogged pool,
//!   guarded so the move strictly improves balance. The watermark and
//!   that balance rule are the only bounds.
//!
//! Every route / steal / shed decision journals through `rtr-trace`
//! under the reserved [`FEDERATION_SHARD`](rtr_trace::FEDERATION_SHARD)
//! id, so merged journals interleave federation decisions with the pool
//! events they caused and `trace_lint` validates them.

#![warn(missing_docs)]

mod federation;
mod snapshot;

pub use federation::{FedPolicy, Federation, FederationConfig, POOL_STRIDE};
pub use snapshot::{FederationSnapshot, PoolSnapshot};
