//! # vp2-bitstream — configuration bitstreams and the BitLinker
//!
//! Implements the configuration-data plane of the reproduction:
//!
//! * a Xilinx-style packetised bitstream format (sync word, type-1/type-2
//!   packets, FAR/FDRI/CMD/IDCODE registers, CRC check) in [`packet`];
//! * generation of **full**, **partial** and **differential** configurations
//!   from `vp2-fabric` configuration memories in [`builder`], each a word
//!   source over the frames it carries, and the word-at-a-time
//!   configuration logic ([`Applier`]) that applies a stream as it
//!   arrives — the contract for malformed streams is in [`builder`];
//! * the **BitLinker** configuration-assembly tool in [`bitlinker`] — the
//!   paper's answer to the two core reconfiguration hazards:
//!   1. partial configurations are *differential* (they assume an initial
//!      state), but the dynamic area is reused in an order unknown at
//!      generation time, so BitLinker emits *complete* configurations;
//!   2. frames span the full device height, so BitLinker guarantees the rows
//!      above and below the dynamic region are carried over unchanged;
//!
//! plus component **relocation** and **assembly** with bus-macro
//! footprint checking, enabling component reuse without rerunning the
//! high-level design flow.

pub mod bitlinker;
pub mod builder;
pub mod compress;
pub mod crc;
pub mod fault;
pub mod packet;

pub use bitlinker::{AssembleError, BitLinker, Component};
pub use builder::{
    apply_bitstream, apply_bitstream_faulty, differential_bitstream, full_bitstream,
    partial_bitstream, partial_bitstream_len, partial_stream, Applier, ApplyError, ApplyReport,
    PartialStream,
};
pub use compress::{compress_words, decoded, Decoded, COMPRESSED_MAGIC};
pub use fault::{apply_upset, BurstConfig, BurstPlan, FaultPlan, Upset};
pub use packet::{Bitstream, ConfigRegister, Packet, SYNC_WORD};

/// IDCODE of the XC2VP7 (matches the real part's JTAG IDCODE).
pub const IDCODE_XC2VP7: u32 = 0x0124_A093;
/// IDCODE of the XC2VP30.
pub const IDCODE_XC2VP30: u32 = 0x0127_E093;

/// IDCODE for a device kind.
pub fn idcode_for(kind: vp2_fabric::DeviceKind) -> u32 {
    match kind {
        vp2_fabric::DeviceKind::Xc2vp7 => IDCODE_XC2VP7,
        vp2_fabric::DeviceKind::Xc2vp30 => IDCODE_XC2VP30,
    }
}

#[cfg(test)]
mod applier_fuzz;
