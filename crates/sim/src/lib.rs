//! # vp2-sim — simulation kernel
//!
//! Foundation crate for the platform-FPGA reproduction: simulated time with
//! picosecond resolution, clock domains (the paper's systems mix 200/300 MHz
//! CPU clocks with 50/100 MHz bus clocks), online statistics, a tiny
//! deterministic RNG, JSON, and plain-text table rendering used by the
//! experiment harness.
//!
//! The kernel is deliberately small and has no event queue: the machine model
//! in `rtr-core` owns all components concretely and steps its concurrent
//! activity (DMA bursts, FIFO drains, interrupt lines) directly from the
//! platform's `advance` before every bus access. Everything here is `Send`,
//! allocation-light and fully deterministic, in line with the
//! data-race-freedom and predictability goals of HPC Rust.

pub mod clock;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use clock::ClockDomain;
pub use json::{Json, ParseError};
pub use rng::SplitMix64;
pub use stats::{Histogram, OnlineStats};
pub use time::SimTime;
