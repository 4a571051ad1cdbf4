//! # rtr-service — request-driven reconfiguration scheduler
//!
//! The paper's run-time reconfiguration framework answers *how* to swap a
//! module into the dynamic region; this crate answers *when it pays to*.
//! A [`Service`] multiplexes heterogeneous application requests (SHA-1,
//! Jenkins lookup2, 8×8 pattern matching, and the three imaging tasks)
//! onto one simulated Virtex-II Pro platform:
//!
//! * requests land in per-module admission queues ([`queue`]);
//! * a pluggable batch policy ([`sched`]) picks which queue to drain —
//!   FCFS by head arrival, swap-aware lookahead that sticks with the
//!   resident module until another queue amortizes a swap, or
//!   priority/deadline lanes;
//! * the scheduler drains that kernel's queue as one batch and decides —
//!   using a [`cost`] model calibrated from measured software/hardware
//!   timings and the measured reconfiguration time — whether the batch
//!   runs software-only on the PPC405 or amortizes an ICAP transfer and
//!   runs in the dynamic region;
//! * a [`metrics`] snapshot reports throughput, latency percentiles,
//!   dynamic-region utilization and the hardware/software split;
//! * a seeded [`traffic`] generator produces reproducible open-loop
//!   workloads for experiments and tests.
//!
//! Both systems from the paper are supported; on the 32-bit system the
//! unrolled SHA-1 core does not fit the dynamic region, so SHA-1 traffic
//! degrades gracefully to the software path.

#![warn(missing_docs)]

pub mod cost;
pub mod metrics;
pub mod queue;
pub mod sched;
pub mod service;
pub mod share;
pub mod traffic;

pub use cost::{CostModel, PathEstimate};
pub use metrics::{Metrics, MetricsSnapshot};
pub use queue::{AdmissionQueues, Pending};
pub use rtr_configplane::{ConfigPlaneConfig, ConfigPlaneStats};
pub use rtr_core::{BurstConfig, RetryPolicy, ScrubPolicy, ScrubStats};
pub use sched::{BatchPolicy, Candidate, LaneRank};
pub use service::{Policy, Service, ServiceConfig, ServiceError};
pub use share::BootShare;
pub use traffic::{FlashCrowd, TrafficConfig, TrafficStream};
