//! # rtr-trace — deterministic event journal and makespan attribution
//!
//! The paper's whole argument is a time-accounting one: reconfiguration
//! overhead vs amortized hardware speedup. The service and cluster
//! layers report end-of-run aggregates; this crate records *where the
//! time went*. A [`Tracer`] is a cheaply cloneable, `Send` handle onto a
//! [`Journal`] of typed [`TraceEvent`]s: a registry of **per-shard
//! rings** whose rows carry a per-shard sequence number, threaded
//! through every layer of the stack (admission buffers, queues, the
//! module manager's retry ladder, the HWICAP, the DMA engine and the
//! quarantine machinery). `stream_to` adds a buffered JSONL sink per
//! shard so run length is disk-bounded, not ring-bounded.
//!
//! The [`Journal`] is generic over its row type ([`JournalRow`] declares
//! the merge key, its JSON field names and the stream-file suffix).
//! `rtr-telemetry`'s time-series plane is a second view over the same
//! journal, so both planes share one registry, one `seq` stamp, one
//! ring bound and one stream/merge path.
//!
//! Design rules:
//!
//! * **Sim clock only.** Every event is stamped with the simulated
//!   clock, never the wall clock, so traces are byte-identical across
//!   runs with equal seeds.
//! * **Thread-interleaving independent.** Each shard journals into its
//!   own ring; consumers read the merged view, totally ordered by
//!   `(time, shard, seq)`, so a cluster flushing shards on worker
//!   threads exports the same bytes at any thread count.
//! * **Zero observer effect.** Recording never touches a clock, an RNG
//!   or any model state: a traced run produces bit-identical results to
//!   an untraced one.
//! * **No-op when disabled.** [`Tracer::disabled`] is a `None` handle;
//!   the hot path pays one branch ([`Journal::on`]) and nothing else.
//!
//! On top of the journal sit three consumers:
//!
//! * [`spans`] assembles per-request [`RequestSpan`]s, splitting each
//!   request's latency into buffer wait → queue wait → reconfiguration
//!   share → execution — phases that sum exactly to the latency the
//!   service metrics recorded;
//! * [`chrome_trace`] exports Chrome trace-event JSON (loadable in
//!   Perfetto or `chrome://tracing`) with one process per shard and
//!   async arrows for request lifecycles;
//! * [`Profiler`] folds a trace into a makespan [`AttributionReport`]:
//!   per-shard busy / reconfig / idle / quarantined fractions (summing
//!   exactly to the shard's makespan) and per-kernel time totals.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod journal;
pub mod profile;
pub mod span;
pub mod tracer;

pub use chrome::chrome_trace;
pub use event::{EventKind, TraceEvent, FEDERATION_SHARD, KIND_NAMES};
pub use journal::{Journal, JournalRow};
pub use profile::{AttributionReport, Profiler, ShardAttribution};
pub use span::{spans, RequestSpan};
pub use tracer::Tracer;
