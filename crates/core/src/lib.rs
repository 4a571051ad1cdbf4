//! # rtr-core — the run-time reconfiguration framework
//!
//! The paper's primary contribution, reconstructed as an executable model:
//! two complete platform-FPGA systems supporting dynamic reconfiguration,
//! sharing the generic organisation of section 2 (memory interface unit,
//! configuration control unit, external communication unit, dynamic-area
//! communication unit) but differing exactly where the paper's systems
//! differ:
//!
//! | | 32-bit system | 64-bit system |
//! |---|---|---|
//! | device | XC2VP7 (-6) | XC2VP30 (-7) |
//! | CPU clock | 200 MHz | 300 MHz |
//! | PLB / OPB clock | 50 MHz | 100 MHz |
//! | external memory | 32 MB SRAM on OPB | 512 MB DDR on PLB |
//! | dock | OPB Dock (slave, 32-bit) | PLB Dock (master/slave, 64-bit, DMA + FIFO + IRQ) |
//! | dynamic region | 308 CLBs + 6 BRAMs | 768 CLBs + 22 BRAMs |
//!
//! Key types: [`Machine`] (the executing system), [`SystemKind`] and
//! [`build_system`] (construction), [`manager::ModuleManager`] (run-time
//! partial reconfiguration through the HWICAP), and [`measure`] (the
//! experiment drivers behind the paper's tables).

pub mod machine;
pub mod manager;
pub mod measure;
pub mod resources;
pub mod share;
pub mod system;
pub mod timing;

pub use machine::{Machine, Platform};
pub use manager::{
    ImageTable, LoadError, LoadOutcome, ModuleHealth, ModuleManager, RegisteredModule, RetryPolicy,
    ScrubPolicy, ScrubStats,
};
pub use share::OnceTable;
pub use system::{build_system, SystemKind};
pub use timing::SystemTiming;
pub use vp2_bitstream::{BurstConfig, BurstPlan, FaultPlan};
