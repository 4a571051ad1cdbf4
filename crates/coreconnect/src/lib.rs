//! # coreconnect-sim — the on-chip bus system
//!
//! A transaction-level model of the CoreConnect bus architecture as used by
//! the paper's two systems: the 64-bit **PLB** (processor local bus), the
//! 32-bit **OPB** (on-chip peripheral bus), the PLB→OPB **bridge**, memory
//! controllers (on-chip BRAM, external SRAM on the OPB for the 32-bit
//! system, external DDR on the PLB for the 64-bit system), the
//! **scatter-gather DMA** engine of the PLB dock, the **interrupt
//! controller**, the **OPB HWICAP** configuration port, and stub UART/GPIO
//! peripherals.
//!
//! Timing is modelled at transaction granularity: every transfer pays
//! arbitration + address + data-beat cycles in the bus's own clock domain,
//! plus slave wait states, plus clock-domain synchronisation when crossing
//! the bridge. Buses track occupancy, so concurrent masters (CPU vs. DMA)
//! genuinely contend.

pub mod bridge;
pub mod dma;
pub mod icap;
pub mod intc;
pub mod map;
pub mod memory;
pub mod periph;
pub mod timing;

pub use bridge::Bridge;
pub use dma::{DmaDirection, DmaEngine, DmaStatus};
pub use icap::HwIcap;
pub use intc::InterruptController;
pub use memory::MemArray;
pub use timing::{Bus, BusTiming};
