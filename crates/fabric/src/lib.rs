//! # vp2-fabric — Virtex-II Pro resource and configuration-memory model
//!
//! This crate models the *architectural* properties of the Virtex-II Pro
//! family that the paper's implementation issues revolve around:
//!
//! * a grid of CLBs (4 slices × 2 LUT4 + 2 FF each) plus BRAM columns and
//!   embedded PowerPC blocks, with the exact resource counts of the two
//!   devices used in the paper (XC2VP7: 4928 slices / 44 BRAMs; XC2VP30:
//!   13696 slices / 136 BRAMs);
//! * **column-oriented configuration frames** — a frame controls a full-height
//!   column of resources, which is why a partial-height dynamic region forces
//!   partial configurations to preserve the bits of the rows above and below;
//! * a deterministic encoding from placed logic (LUT truth tables, FF config,
//!   routing summary) to frame bits, so that differential bitstreams, frame
//!   diffing, readback and the BitLinker completeness guarantee are all real
//!   bit-level operations rather than bookkeeping fictions.
//!
//! Electrical behaviour (delays, signal integrity) is out of scope; timing is
//! handled at the system level by `rtr-core`'s calibrated transaction model.

pub mod config;
pub mod coords;
pub mod device;
pub mod floorplan;
pub mod region;

pub use config::{ConfigMemory, FrameAddress, FrameBlock};
pub use coords::{ClbCoord, FfIndex, LutIndex, SliceCoord, SliceIndex};
pub use device::{Device, DeviceKind};
pub use region::DynamicRegion;
