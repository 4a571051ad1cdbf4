//! # rtr-apps — the paper's evaluation workloads
//!
//! The six application fragments of sections 3.2 and 4.2, each in four
//! forms:
//!
//! 1. a **Rust reference** (ground truth for correctness),
//! 2. a **software implementation** in PPC assembly, written in the
//!    straightforward style a C compiler produces from the original code
//!    (the paper's point (iii): bit manipulations that are "cumbersome to
//!    express in the C programming language" stay cumbersome here),
//! 3. a **hardware module**: a fast behavioural model implementing the dock
//!    protocol, plus a placed gate-level netlist that is property-tested
//!    for equivalence and provides honest area numbers,
//! 4. a **driver** program for each version. One [`request::Driver`]
//!    runs all of them on either system — for the service, the benchmark
//!    replay and the paper tables alike ([`request::compare`] times one
//!    request both ways). Only table 12's DMA programs
//!    ([`imaging::dma_run`]) and the table-driven software ablation
//!    ([`patmatch::sw_run_optimized`]) run outside it.
//!
//! Workloads: 8×8 bilevel [`patmatch`], Jenkins lookup2 [`jenkins`],
//! [`sha1`], and the three grayscale [`imaging`] tasks (brightness,
//! additive blending, fade).

pub mod harness;
pub mod imaging;
pub mod jenkins;
pub mod patmatch;
pub mod request;
pub mod sha1;

pub use request::{Kernel, Lane, Priority, Request, Response, Work};
