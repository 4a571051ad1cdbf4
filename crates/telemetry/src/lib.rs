//! # rtr-telemetry — deterministic streaming time-series metrics plane
//!
//! End-of-run snapshots say *what* a run cost; they cannot say *when*
//! the cost was paid. The paper's whole argument — reconfiguration pays
//! only when its overhead is measured and amortized — is a claim about
//! trajectories, so this crate samples the stack while it runs: queue
//! depths, buffered bytes, region utilization, the measured
//! reconfiguration EWMA, cache hit rates, swap/steal/shed rates, and
//! per-lane tail latencies from bounded ring windows.
//!
//! The plane and `rtr-trace`'s event journal are two views over one
//! per-shard journal, `rtr_trace::Journal`, generic over its row type:
//!
//! * A [`Telemetry`] handle, like `Tracer`, is a thin handle over that
//!   journal: cheaply cloneable, `Send`, [`Telemetry::disabled`] by
//!   default (every instrumentation point costs one branch when
//!   telemetry is off), fanned out per shard with
//!   [`Telemetry::with_shard`]. The registry, per-shard `seq`, ring
//!   bound, sinks and merge are the journal's.
//! * Samples are stamped with a **tick** — simulated time divided by a
//!   fixed tick period — and deduplicated per `(shard, scope)` per tick,
//!   so the emission *rate* is bounded by the tick period no matter how
//!   busy the run is. The dedup, rate and lane-window state lives in the
//!   journal's per-shard slot, and a dropped sample consumes no `seq`.
//! * Each shard's series streams to its own JSONL file
//!   (`{base}.shardNNN.tl.jsonl`) as rows are emitted, and the journal's
//!   `merge_streams` folds them into one file ordered by
//!   `(tick, shard, seq)` — the key [`TelemetryRow`] declares as its
//!   `JournalRow` — a total order independent of thread interleaving,
//!   so equal seeds produce byte-identical telemetry at any thread
//!   count, exactly like the trace journals.
//!
//! Sampling is **read-only**: it never touches the simulated clock or
//! any model state, so a telemetry-off run is byte-identical to a build
//! without telemetry, and a telemetry-on run's snapshots are
//! byte-identical to a telemetry-off run's.

#![warn(missing_docs)]

mod handle;
mod row;

pub use handle::{Telemetry, DEFAULT_CAPACITY, DEFAULT_TICK_PS, LANE_WINDOW};
pub use row::{Gauge, GaugeKind, TelemetryRow};
