//! Shared driver utilities: memory layout, program execution, module
//! binding.

use dock::DynamicModule;
use ppc405_sim::{assemble, Program};
use rtr_core::machine::{Docks, Machine};
use vp2_sim::SimTime;

/// Program load address (on-chip memory).
pub const PROG_BASE: u32 = 0x1000;
/// First input buffer (external memory). The four buffers are staggered by
/// odd multiples of 0x840 so they do not alias in the 16 KB 2-way D-cache
/// (three streams landing on the same sets would thrash a 2-way cache —
/// a benchmarking artefact, not a property of the tasks).
pub const SRC_A: u32 = 0x2010_0000;
/// Second input buffer.
pub const SRC_B: u32 = 0x2020_0840;
/// Output buffer.
pub const DST: u32 = 0x2030_1080;
/// Scratch buffer (DMA staging, data preparation).
pub const AUX: u32 = 0x2040_1900;
/// Dock data window base.
pub const DOCK: u32 = 0x8000_0000;

/// Assembles `src`, loads it, runs `entry` with `args`, returns
/// `(elapsed, r3)`. Only the programs outside [`crate::request::Driver`]
/// (table 12's DMA path and the software-quality ablation) run this way.
///
/// # Panics
/// Panics on assembly errors or if the program fails to halt — both are
/// harness bugs, not data conditions.
pub fn run_asm(m: &mut Machine, src: &str, args: &[u32], max_instrs: u64) -> (SimTime, u32) {
    let prog: Program = assemble(src, PROG_BASE).unwrap_or_else(|e| panic!("asm error: {e}"));
    m.load_program(&prog);
    m.call(prog.label("entry"), args, max_instrs)
}

/// Binds a behavioural module directly to the dock. Experiment drivers use
/// this fast path; the reconfiguration path (BitLinker → ICAP → verify →
/// bind) is exercised by `ModuleManager` tests and the examples.
pub fn bind(m: &mut Machine, module: Box<dyn DynamicModule>) {
    m.platform.dock.bind(module);
}

/// Enables/disables FIFO capture on the PLB dock (64-bit system only).
pub fn set_fifo_capture(m: &mut Machine, on: bool) {
    if let Docks::Plb(d) = &mut m.platform.dock {
        d.fifo_capture = on;
    }
}

/// Copies a byte buffer into simulated memory (no simulated time), and
/// drops any stale cached copies of the range.
pub fn store_bytes(m: &mut Machine, addr: u32, bytes: &[u8]) {
    m.platform.poke_bytes(addr, bytes);
    m.invalidate_dcache_range(addr, bytes.len());
}

/// Reads a byte buffer back from simulated memory (flushing any dirty
/// cache lines covering it first, at zero simulated cost).
pub fn load_bytes(m: &mut Machine, addr: u32, len: usize) -> Vec<u8> {
    m.flush_dcache_range(addr, len);
    m.platform.peek_bytes(addr, len)
}

/// Stores a sequence of big-endian words.
pub fn store_words(m: &mut Machine, addr: u32, words: &[u32]) {
    for (i, &w) in words.iter().enumerate() {
        m.platform.poke_mem(addr + 4 * i as u32, w);
    }
    m.invalidate_dcache_range(addr, words.len() * 4);
}

/// Loads a sequence of big-endian words (flushing covering cache lines).
pub fn load_words(m: &mut Machine, addr: u32, n: usize) -> Vec<u32> {
    m.flush_dcache_range(addr, n * 4);
    (0..n)
        .map(|i| m.platform.peek_mem(addr + 4 * i as u32))
        .collect()
}

/// A measured hw-vs-sw pair, as every results table reports.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Software-only time.
    pub sw: SimTime,
    /// Hardware/software time (including driver overhead and, where
    /// applicable, data preparation).
    pub hw: SimTime,
    /// Data-preparation portion of `hw` (table 12's extra column; zero
    /// when no preparation is needed).
    pub prep: SimTime,
}

impl Comparison {
    /// Speedup as the paper reports it (sw / hw).
    pub fn speedup(&self) -> f64 {
        self.sw.as_ps() as f64 / self.hw.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::{build_system, SystemKind};

    #[test]
    fn run_asm_roundtrip() {
        let mut m = build_system(SystemKind::Bit32);
        let (t, r3) = run_asm(
            &mut m,
            "entry:\n  li r3, 9\n  mullw r3, r3, r3\n  halt\n",
            &[],
            100,
        );
        assert_eq!(r3, 81);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn buffers_roundtrip() {
        let mut m = build_system(SystemKind::Bit64);
        store_bytes(&mut m, SRC_A, &[1, 2, 3, 4, 5]);
        assert_eq!(load_bytes(&mut m, SRC_A, 5), vec![1, 2, 3, 4, 5]);
        store_words(&mut m, DST, &[0xAABB_CCDD, 42]);
        assert_eq!(load_words(&mut m, DST, 2), vec![0xAABB_CCDD, 42]);
    }

    #[test]
    fn comparison_speedup() {
        let c = Comparison {
            sw: SimTime::from_us(26),
            hw: SimTime::from_us(1),
            prep: SimTime::ZERO,
        };
        assert!((c.speedup() - 26.0).abs() < 1e-9);
    }
}
