//! Property test: the instruction cache's micro-op lines execute exactly
//! like decode-per-fetch.
//!
//! Each case runs a generated program (see `gen`) twice: with caches on,
//! where every fetch comes from a micro-op line translated when the
//! I-cache line filled (through the block engine wherever it can run),
//! and with caches off, where every fetch reads memory and translates the
//! word on its own. Both runs must end with equal
//! registers, equal memory and equal retired / taken-branch / memory-op
//! counts. Nothing drives the interrupt line here, so the doorbell and
//! `wrteei` ops the generator emits only act as uncached accesses and mask
//! changes; `block.rs` covers interrupts.

mod gen;

use gen::{Case, ILLEGAL, MEM_BYTES};
use ppc405_sim::mem::LINE_BYTES;
use ppc405_sim::{decode, Cpu, CpuConfig, Fault};
use vp2_sim::{ClockDomain, SimTime, SplitMix64};

/// Cases: a quick sweep in debug builds, a deeper one in release.
const CASES: u64 = if cfg!(debug_assertions) { 200 } else { 5_000 };

struct Outcome {
    regs: Vec<u32>,
    mem: Vec<u8>,
    retired: u64,
    taken_branches: u64,
    mem_ops: u64,
    fault: Option<Fault>,
}

fn run(case: &Case, cfg: CpuConfig) -> Outcome {
    let mut mem = case.memory();
    let mut cpu = Cpu::new(cfg);
    assert!(cpu.run_until_halt(&mut mem, 100_000), "program must halt");
    // Write the D-cache's dirty lines back so memory is comparable.
    for line in (0..MEM_BYTES as u32).step_by(LINE_BYTES) {
        cpu.dcache.flush_line(SimTime::ZERO, line, &mut mem);
    }
    Outcome {
        regs: (0..32).map(|r| cpu.reg(r)).collect(),
        mem: mem.bytes,
        retired: cpu.stats.retired,
        taken_branches: cpu.stats.taken_branches,
        mem_ops: cpu.stats.mem_ops,
        fault: cpu.last_fault(),
    }
}

#[test]
fn predecoded_fetch_matches_decode_per_fetch() {
    assert_eq!(decode(ILLEGAL), None, "the parked word must not decode");
    for n in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0405 + n);
        let case = Case::draw(&mut rng);
        let mut cached = CpuConfig::ppc405(ClockDomain::from_mhz("cpu", 300));
        cached.vector_base = case.vectors;
        // Small caches force line evictions and rebuilds of the micro-op
        // lines; the full 16 KB ones keep every line resident.
        let bytes = [128, 256, 1024, 16 * 1024][rng.below(4) as usize];
        cached.icache_bytes = bytes;
        cached.dcache_bytes = bytes;
        let uncached = CpuConfig {
            caches_enabled: false,
            ..cached.clone()
        };
        let (a, b) = (run(&case, cached), run(&case, uncached));
        assert_eq!(a.regs, b.regs, "case {n}: registers");
        assert!(a.mem == b.mem, "case {n}: memory");
        assert_eq!(a.retired, b.retired, "case {n}: retired");
        assert_eq!(a.taken_branches, b.taken_branches, "case {n}: branches");
        assert_eq!(a.mem_ops, b.mem_ops, "case {n}: memory ops");
        assert_eq!(a.fault, b.fault, "case {n}: last fault");
    }
}
