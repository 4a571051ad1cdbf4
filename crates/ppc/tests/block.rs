//! Differential fuzz: the block engine (`Cpu::run_block`) leaves exactly
//! the state the one-instruction engine (`Cpu::step`) does.
//!
//! Each case runs a generated program (see `gen`) on two cores over two
//! copies of one memory. The memory (`gen::IrqMem`) models an interrupt
//! source: an uncached load from the doorbell word raises the interrupt
//! level and a store sets it, so either kind of uncached access can reach
//! a device that interrupts. The block
//! run drives its core like `Machine::run_until_halt`: a block of a random
//! budget (one step when no block can run), then the level is sampled
//! into the core's interrupt line. The step run steps its core once per
//! instruction the block ran, sampling after every step like
//! `Machine::step`. After every block both must agree on registers, PC,
//! memory, `now`, the interrupt state, SRR0 and the last fault (so the
//! machine checks and program exceptions the cases raise enter alike),
//! all four `CpuStats` counters and both caches' `CacheStats`; at `halt`
//! they must also agree on memory
//! with the D-caches written back. Cache sizes run from 128 B (the
//! executing line gets evicted) to 16 KB.

mod gen;

use gen::{Case, IrqMem, MEM_BYTES};
use ppc405_sim::mem::LINE_BYTES;
use ppc405_sim::{Cpu, CpuConfig, Fault, FaultKind};
use vp2_sim::{ClockDomain, SimTime, SplitMix64};

/// Cases: a quick sweep in debug builds, a deeper one in release.
const CASES: u64 = if cfg!(debug_assertions) { 300 } else { 10_000 };
/// Steps a case may take before it counts as hung.
const MAX_INSTRS: u64 = 100_000;

/// One engine's core and memory.
#[derive(Clone)]
struct Run {
    cpu: Cpu,
    mem: IrqMem,
}

impl Run {
    /// Samples the interrupt level into the core, as the machine does.
    fn sync(&mut self) {
        self.cpu.set_irq(self.mem.level);
    }

    /// Memory with the D-cache's dirty lines written back.
    fn flushed_memory(&self) -> Vec<u8> {
        let mut run = self.clone();
        for line in (0..MEM_BYTES as u32).step_by(LINE_BYTES) {
            run.cpu.dcache.flush_line(SimTime::ZERO, line, &mut run.mem);
        }
        run.mem.flat.bytes
    }
}

fn assert_same(block: &Run, step: &Run, what: &str) {
    let (a, b) = (&block.cpu, &step.cpu);
    for r in 0..32 {
        assert_eq!(a.reg(r), b.reg(r), "{what}: r{r}");
    }
    assert_eq!(a.pc(), b.pc(), "{what}: pc");
    assert_eq!(a.now(), b.now(), "{what}: now");
    assert_eq!(a.stats, b.stats, "{what}: cpu stats");
    assert_eq!(a.icache.stats, b.icache.stats, "{what}: icache stats");
    assert_eq!(a.dcache.stats, b.dcache.stats, "{what}: dcache stats");
    assert_eq!(a.halted(), b.halted(), "{what}: halted");
    assert_eq!(a.srr0(), b.srr0(), "{what}: srr0");
    assert_eq!(a.last_fault(), b.last_fault(), "{what}: last fault");
    assert_eq!(
        (a.interrupts_enabled(), a.irq_line()),
        (b.interrupts_enabled(), b.irq_line()),
        "{what}: interrupt state"
    );
    assert_eq!(block.mem.level, step.mem.level, "{what}: irq level");
    assert!(
        block.mem.log == step.mem.log,
        "{what}: memory accesses and their instants"
    );
    assert!(
        block.mem.flat.bytes == step.mem.flat.bytes,
        "{what}: memory"
    );
}

/// What the cases exercised, so the fuzz cannot pass vacuously.
#[derive(Default)]
struct Coverage {
    interrupts: u64,
    /// Cases that ended in the program exception.
    illegal: u64,
    /// Blocks longer than a cache line, so they chained across lines.
    chained: u64,
    /// Blocks cut short by their budget.
    budget_cut: u64,
    /// Times no block could run and the harness stepped instead.
    fallbacks: u64,
}

#[test]
fn block_engine_matches_step_engine() {
    let mut seen = Coverage::default();
    for n in 0..CASES {
        let mut rng = SplitMix64::new(0xB10C_0405 + n);
        let case = Case::draw(&mut rng);
        let mut cfg = CpuConfig::ppc405(ClockDomain::from_mhz("cpu", 300));
        cfg.vector_base = case.vectors;
        cfg.icache_bytes = 128 << rng.below(8);
        cfg.dcache_bytes = 128 << rng.below(8);
        let init = Run {
            cpu: Cpu::new(cfg),
            mem: IrqMem::new(case.memory()),
        };
        let (mut block, mut step) = (init.clone(), init);
        let mut retired = 0;
        while !block.cpu.halted() {
            assert!(retired < MAX_INSTRS, "case {n}: program must halt");
            let budget = if rng.chance(1, 3) {
                1 + rng.below(8)
            } else {
                1 + rng.below(400)
            };
            let mut ran = block.cpu.run_block(&mut block.mem, budget);
            if ran == 0 {
                seen.fallbacks += 1;
                block.cpu.step(&mut block.mem);
                ran = 1;
            } else if ran == budget && !block.cpu.halted() {
                seen.budget_cut += 1;
            }
            block.sync();
            assert!(ran <= budget, "case {n}: block overran its budget");
            for _ in 0..ran {
                step.cpu.step(&mut step.mem);
                step.sync();
            }
            retired += ran;
            assert_same(&block, &step, &format!("case {n} after {retired} instrs"));
            if ran as usize > LINE_BYTES / 4 {
                seen.chained += 1;
            }
        }
        assert!(
            block.flushed_memory() == step.flushed_memory(),
            "case {n}: written-back memory"
        );
        seen.interrupts += block.cpu.stats.interrupts;
        seen.illegal += u64::from(matches!(
            block.cpu.last_fault(),
            Some(Fault {
                kind: FaultKind::Illegal(_),
                ..
            })
        ));
    }
    assert!(
        seen.interrupts > 50,
        "interrupts taken: {}",
        seen.interrupts
    );
    assert!(seen.chained > 50, "multi-line blocks: {}", seen.chained);
    assert!(
        seen.budget_cut > 50,
        "budget-cut blocks: {}",
        seen.budget_cut
    );
    assert!(seen.fallbacks > 50, "step fallbacks: {}", seen.fallbacks);
    assert!(seen.illegal > 15, "program exceptions: {}", seen.illegal);
}
