//! Differential fuzz: the block engine (`Cpu::run_block`) leaves exactly
//! the state the one-instruction engine (`Cpu::step`) does.
//!
//! Each case runs a generated program (see `gen`) on two cores over two
//! copies of one memory. The memory models an interrupt source: an
//! uncached load from the doorbell word raises the interrupt level and a
//! store sets it, so either kind of uncached access can reach a device
//! that interrupts. The block
//! run drives its core like `Machine::run_until_halt`: a block of a random
//! budget (one step when no block can run), then the level is sampled
//! into the core's interrupt line. The step run steps its core once per
//! instruction the block retired, sampling after every step like
//! `Machine::step`. After every block both must agree on registers, PC,
//! memory, `now`, the interrupt state, all four `CpuStats` counters and
//! both caches' `CacheStats`; at `halt` they must also agree on memory
//! with the D-caches written back. Cache sizes run from 128 B (the
//! executing line gets evicted) to 16 KB.

mod gen;

use gen::{Case, DOORBELL, MEM_BYTES};
use ppc405_sim::mem::{MemoryPort, LINE_BYTES};
use ppc405_sim::{Cpu, CpuConfig, FlatMem};
use vp2_sim::{ClockDomain, SimTime, SplitMix64};

const CASES: u64 = 300;
/// Steps a case may take before it counts as hung.
const MAX_INSTRS: u64 = 100_000;

/// [`FlatMem`] plus the interrupt level its doorbell word drives.
#[derive(Clone)]
struct IrqMem {
    flat: FlatMem,
    level: bool,
}

impl MemoryPort for IrqMem {
    fn read(&mut self, now: SimTime, addr: u32, size: u8) -> (u32, SimTime) {
        if addr == DOORBELL {
            self.level = true;
        }
        self.flat.read(now, addr, size)
    }

    fn write(&mut self, now: SimTime, addr: u32, size: u8, data: u32) -> SimTime {
        if addr == DOORBELL {
            self.level = data & 1 == 1;
        }
        self.flat.write(now, addr, size, data)
    }

    fn read_line(&mut self, now: SimTime, addr: u32, buf: &mut [u8; LINE_BYTES]) -> SimTime {
        self.flat.read_line(now, addr, buf)
    }

    fn write_line(&mut self, now: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime {
        self.flat.write_line(now, addr, buf)
    }

    fn is_cacheable(&self, addr: u32) -> bool {
        self.flat.is_cacheable(addr)
    }
}

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
    assert_eq!(
        (a.interrupts_enabled(), a.irq_line()),
        (b.interrupts_enabled(), b.irq_line()),
        "{what}: interrupt state"
    );
    assert_eq!(block.mem.level, step.mem.level, "{what}: irq level");
    assert!(
        block.mem.flat.bytes == step.mem.flat.bytes,
        "{what}: memory"
    );
}

/// What the cases exercised, so the fuzz cannot pass vacuously.
#[derive(Default)]
struct Coverage {
    interrupts: u64,
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
        cfg.irq_vector = case.vector;
        cfg.icache_bytes = 128 << rng.below(8);
        cfg.dcache_bytes = 128 << rng.below(8);
        let init = Run {
            cpu: Cpu::new(cfg),
            mem: IrqMem {
                flat: case.memory(),
                level: false,
            },
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
}
