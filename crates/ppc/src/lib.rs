//! # ppc405-sim — embedded CPU model
//!
//! A PowerPC-405-flavoured 32-bit embedded CPU: scalar, in-order, with the
//! 405's cache organisation (16 KB 2-way set-associative instruction and
//! data caches, 32-byte lines, write-back data cache) and an external
//! interrupt input. The software sides of every experiment in the paper run
//! as real programs on this interpreter, so loop overheads, 32-bit-only
//! load/store widths (the architectural limit that motivates the paper's DMA
//! design) and cache behaviour are all emergent rather than estimated.
//!
//! Every instruction is declared once, as a row of the ISA table in
//! [`isa`]: its encoding and decoding, the assembler's mnemonics
//! ([`assemble`]), the disassembler ([`disassemble`]), its base cycle cost
//! and its micro-op form all come from that row. The interpreter's
//! micro-op executor ([`Cpu`]) holds the semantics.
//!
//! Deliberate simplifications, documented here and in DESIGN.md:
//!
//! * the instruction *encoding* is our own fixed 32-bit format, not the real
//!   PowerPC encoding (mnemonics follow PPC conventions);
//! * `r0` reads as hard zero (RISC-V style) instead of PPC's "r0 is zero
//!   only in addressing" rule — it keeps hand-written kernels honest;
//! * one condition-register field (CR0) instead of eight;
//! * timing: 1 cycle per instruction, 2 for loads, 4 for `mullw`, +2 for
//!   taken branches, plus memory-system time for cache misses and uncached
//!   accesses — a reasonable stand-in for the 405's 5-stage pipeline.

pub mod asm;
pub mod cache;
pub mod cpu;
pub mod isa;
pub mod mem;
mod uop;

pub use asm::{assemble, AsmError, Program};
pub use cache::Cache;
pub use cpu::{Cpu, CpuConfig, Fault, FaultKind, StepOutcome};
pub use isa::{decode, disassemble, encode, Instr};
pub use mem::{FlatMem, MemoryPort};

// Lets the unit tests share the integration tests' program generator,
// which names this crate by its package name.
#[cfg(test)]
extern crate self as ppc405_sim;
