//! The CPU core: fetch/decode/execute with cycle accounting.
//!
//! The core executes one instruction at a time, advancing its own
//! [`SimTime`] by the instruction's base cycles plus whatever time the
//! memory system reports for cache misses and uncached (MMIO) accesses.
//! `rtr-core` interleaves the core with the rest of the machine one step at
//! a time (`Machine::step`).
//!
//! Every method that touches memory is generic over the [`MemoryPort`], so
//! the machine's interpreter loop is monomorphised over its platform and
//! the cache hit paths inline. With caches on, fetches come predecoded from
//! the instruction cache (see [`crate::cache`]); with caches off, every
//! fetch reads memory and runs [`decode`], which keeps the cache-off
//! ablation a decode-per-fetch reference for the predecoded path.

use crate::cache::Cache;
use crate::isa::{base_cycles, decode, Instr};
use crate::mem::MemoryPort;
use vp2_sim::{ClockDomain, SimTime};

/// Condition register field (CR0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cr {
    /// Less-than.
    pub lt: bool,
    /// Greater-than.
    pub gt: bool,
    /// Equal.
    pub eq: bool,
}

/// CPU configuration.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Core clock domain (200 MHz on the 32-bit system, 300 MHz on the
    /// 64-bit system).
    pub clock: ClockDomain,
    /// Enable the I/D caches (the software baselines run with caches on;
    /// the cache-off configuration is an ablation).
    pub caches_enabled: bool,
    /// Instruction cache size in bytes.
    pub icache_bytes: usize,
    /// Data cache size in bytes.
    pub dcache_bytes: usize,
    /// Associativity of both caches.
    pub ways: usize,
    /// External-interrupt vector address.
    pub irq_vector: u32,
}

impl CpuConfig {
    /// The 405 configuration at a given core clock.
    pub fn ppc405(clock: ClockDomain) -> Self {
        CpuConfig {
            clock,
            caches_enabled: true,
            icache_bytes: 16 * 1024,
            dcache_bytes: 16 * 1024,
            ways: 2,
            irq_vector: 0x0000_0500,
        }
    }
}

/// Outcome of a single step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Executed,
    /// The `halt` instruction was reached (idempotent afterwards).
    Halted,
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStats {
    /// Instructions retired.
    pub retired: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Loads + stores executed.
    pub mem_ops: u64,
    /// Interrupts taken.
    pub interrupts: u64,
}

/// The CPU core.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    lr: u32,
    pc: u32,
    cr: Cr,
    now: SimTime,
    halted: bool,
    msr_ee: bool,
    srr0: u32,
    srr1_ee: bool,
    irq_line: bool,
    cfg: CpuConfig,
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
    /// Statistics.
    pub stats: CpuStats,
}

impl Cpu {
    /// Builds a core; PC starts at 0.
    pub fn new(cfg: CpuConfig) -> Self {
        let icache = Cache::instruction(cfg.icache_bytes, cfg.ways);
        let dcache = Cache::new(cfg.dcache_bytes, cfg.ways);
        Cpu {
            regs: [0; 32],
            lr: 0,
            pc: 0,
            cr: Cr::default(),
            now: SimTime::ZERO,
            halted: false,
            msr_ee: false,
            srr0: 0,
            srr1_ee: false,
            irq_line: false,
            cfg,
            icache,
            dcache,
            stats: CpuStats::default(),
        }
    }

    /// Reads a register (`r0` is hard zero).
    #[inline]
    pub fn reg(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Writes a register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (program entry).
    pub fn set_pc(&mut self, pc: u32) {
        assert_eq!(pc % 4, 0, "PC must be word-aligned");
        self.pc = pc;
        self.halted = false;
    }

    /// The core's local time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the core's local time (used when the machine stalls the CPU,
    /// e.g. while it sleeps waiting for a DMA interrupt).
    pub fn advance_time_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "time must be monotone");
        self.now = t;
    }

    /// Has `halt` been executed?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Drives the external interrupt line.
    pub fn set_irq(&mut self, level: bool) {
        self.irq_line = level;
    }

    /// Is the external interrupt line high?
    pub fn irq_line(&self) -> bool {
        self.irq_line
    }

    /// Are external interrupts enabled (MSR[EE])?
    pub fn interrupts_enabled(&self) -> bool {
        self.msr_ee
    }

    /// Core clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.cfg.clock
    }

    fn charge(&mut self, cycles: u64, mem_time: SimTime) {
        self.now += self.cfg.clock.cycles(cycles) + mem_time;
    }

    #[inline]
    fn load<M: MemoryPort + ?Sized>(&mut self, addr: u32, size: u8, mem: &mut M) -> u32 {
        assert_eq!(
            addr % u32::from(size),
            0,
            "unaligned {size}-byte load at {addr:#010x}"
        );
        self.stats.mem_ops += 1;
        if self.cfg.caches_enabled && mem.is_cacheable(addr) {
            let (v, t) = self.dcache.read(self.now, addr, size, mem);
            self.now += t;
            v
        } else {
            let (v, t) = mem.read(self.now, addr, size);
            self.now += t;
            v
        }
    }

    #[inline]
    fn store<M: MemoryPort + ?Sized>(&mut self, addr: u32, size: u8, data: u32, mem: &mut M) {
        assert_eq!(
            addr % u32::from(size),
            0,
            "unaligned {size}-byte store at {addr:#010x}"
        );
        self.stats.mem_ops += 1;
        if self.cfg.caches_enabled && mem.is_cacheable(addr) {
            let t = self.dcache.write(self.now, addr, size, data, mem);
            self.now += t;
        } else {
            let t = mem.write(self.now, addr, size, data);
            self.now += t;
        }
    }

    /// Fetches and decodes the instruction at the PC, or returns
    /// `Err(word)` if the word there does not decode.
    #[inline]
    fn fetch<M: MemoryPort + ?Sized>(&mut self, mem: &mut M) -> Result<Instr, u32> {
        assert!(
            self.pc.is_multiple_of(4),
            "unaligned instruction fetch at {:#010x}",
            self.pc
        );
        if self.cfg.caches_enabled && mem.is_cacheable(self.pc) {
            let (instr, t) = self.icache.fetch(self.now, self.pc, mem);
            self.now += t;
            instr
        } else {
            let (w, t) = mem.read(self.now, self.pc, 4);
            self.now += t;
            decode(w).ok_or(w)
        }
    }

    fn set_cr_signed(&mut self, a: i32, b: i32) {
        self.cr = Cr {
            lt: a < b,
            gt: a > b,
            eq: a == b,
        };
    }

    fn set_cr_unsigned(&mut self, a: u32, b: u32) {
        self.cr = Cr {
            lt: a < b,
            gt: a > b,
            eq: a == b,
        };
    }

    fn branch(&mut self, off: i16, taken: bool) {
        if taken {
            self.pc = self.pc.wrapping_add((i32::from(off) * 4) as u32);
            self.stats.taken_branches += 1;
            // Pipeline refill penalty.
            self.now += self.cfg.clock.cycles(crate::isa::TAKEN_BRANCH_PENALTY);
        } else {
            self.pc = self.pc.wrapping_add(4);
        }
    }

    /// Executes one instruction (or takes a pending interrupt).
    #[inline]
    pub fn step<M: MemoryPort + ?Sized>(&mut self, mem: &mut M) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        // External interrupt?
        if self.msr_ee && self.irq_line {
            self.srr0 = self.pc;
            self.srr1_ee = self.msr_ee;
            self.msr_ee = false;
            self.pc = self.cfg.irq_vector;
            self.stats.interrupts += 1;
            // Exception entry latency.
            self.now += self.cfg.clock.cycles(4);
        }

        let instr = self
            .fetch(mem)
            .unwrap_or_else(|word| panic!("illegal instruction {word:#010x} at {:#010x}", self.pc));
        self.stats.retired += 1;
        self.charge(base_cycles(instr), SimTime::ZERO);

        use Instr::*;
        match instr {
            Halt => {
                self.halted = true;
                return StepOutcome::Halted;
            }
            Addi { rd, ra, imm } => {
                let v = self.reg(ra).wrapping_add(imm as i32 as u32);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Addis { rd, ra, imm } => {
                let v = self.reg(ra).wrapping_add((imm as i32 as u32) << 16);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Add { rd, ra, rb } => {
                let v = self.reg(ra).wrapping_add(self.reg(rb));
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Sub { rd, ra, rb } => {
                let v = self.reg(ra).wrapping_sub(self.reg(rb));
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Mullw { rd, ra, rb } => {
                let v = self.reg(ra).wrapping_mul(self.reg(rb));
                self.set_reg(rd, v);
                self.pc += 4;
            }
            And { rd, ra, rb } => {
                let v = self.reg(ra) & self.reg(rb);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Or { rd, ra, rb } => {
                let v = self.reg(ra) | self.reg(rb);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Xor { rd, ra, rb } => {
                let v = self.reg(ra) ^ self.reg(rb);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Nor { rd, ra, rb } => {
                let v = !(self.reg(ra) | self.reg(rb));
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Andi { rd, ra, imm } => {
                let v = self.reg(ra) & u32::from(imm);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Ori { rd, ra, imm } => {
                let v = self.reg(ra) | u32::from(imm);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Xori { rd, ra, imm } => {
                let v = self.reg(ra) ^ u32::from(imm);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Slw { rd, ra, rb } => {
                let v = self.reg(ra) << (self.reg(rb) & 31);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Srw { rd, ra, rb } => {
                let v = self.reg(ra) >> (self.reg(rb) & 31);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Slwi { rd, ra, sh } => {
                let v = self.reg(ra) << sh;
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Srwi { rd, ra, sh } => {
                let v = self.reg(ra) >> sh;
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Srawi { rd, ra, sh } => {
                let v = ((self.reg(ra) as i32) >> sh) as u32;
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Rotlwi { rd, ra, sh } => {
                let v = self.reg(ra).rotate_left(u32::from(sh));
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Lwz { rd, ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                let v = self.load(addr, 4, mem);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Lbz { rd, ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                let v = self.load(addr, 1, mem);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Lhz { rd, ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                let v = self.load(addr, 2, mem);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Stw { rd, ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                let v = self.reg(rd);
                self.store(addr, 4, v, mem);
                self.pc += 4;
            }
            Stb { rd, ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                let v = self.reg(rd);
                self.store(addr, 1, v, mem);
                self.pc += 4;
            }
            Sth { rd, ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                let v = self.reg(rd);
                self.store(addr, 2, v, mem);
                self.pc += 4;
            }
            Lwzx { rd, ra, rb } => {
                let addr = self.reg(ra).wrapping_add(self.reg(rb));
                let v = self.load(addr, 4, mem);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Stwx { rd, ra, rb } => {
                let addr = self.reg(ra).wrapping_add(self.reg(rb));
                let v = self.reg(rd);
                self.store(addr, 4, v, mem);
                self.pc += 4;
            }
            Lbzx { rd, ra, rb } => {
                let addr = self.reg(ra).wrapping_add(self.reg(rb));
                let v = self.load(addr, 1, mem);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Lhzx { rd, ra, rb } => {
                let addr = self.reg(ra).wrapping_add(self.reg(rb));
                let v = self.load(addr, 2, mem);
                self.set_reg(rd, v);
                self.pc += 4;
            }
            Stbx { rd, ra, rb } => {
                let addr = self.reg(ra).wrapping_add(self.reg(rb));
                let v = self.reg(rd);
                self.store(addr, 1, v, mem);
                self.pc += 4;
            }
            Cmpw { ra, rb } => {
                self.set_cr_signed(self.reg(ra) as i32, self.reg(rb) as i32);
                self.pc += 4;
            }
            Cmplw { ra, rb } => {
                self.set_cr_unsigned(self.reg(ra), self.reg(rb));
                self.pc += 4;
            }
            Cmpwi { ra, imm } => {
                self.set_cr_signed(self.reg(ra) as i32, i32::from(imm));
                self.pc += 4;
            }
            Cmplwi { ra, imm } => {
                self.set_cr_unsigned(self.reg(ra), u32::from(imm));
                self.pc += 4;
            }
            B { off } => self.branch(off, true),
            Bl { off } => {
                self.lr = self.pc + 4;
                self.branch(off, true);
            }
            Blr => {
                self.pc = self.lr;
                self.stats.taken_branches += 1;
                self.now += self.cfg.clock.cycles(crate::isa::TAKEN_BRANCH_PENALTY);
            }
            Beq { off } => self.branch(off, self.cr.eq),
            Bne { off } => self.branch(off, !self.cr.eq),
            Blt { off } => self.branch(off, self.cr.lt),
            Bge { off } => self.branch(off, !self.cr.lt),
            Bgt { off } => self.branch(off, self.cr.gt),
            Ble { off } => self.branch(off, !self.cr.gt),
            Dcbf { ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                if self.cfg.caches_enabled {
                    let t = self.dcache.flush_line(self.now, addr, mem);
                    self.now += t;
                }
                self.pc += 4;
            }
            Dcbi { ra, imm } => {
                let addr = self.reg(ra).wrapping_add(imm as i32 as u32);
                if self.cfg.caches_enabled {
                    self.dcache.invalidate_line(addr);
                }
                self.pc += 4;
            }
            Wrteei { imm } => {
                self.msr_ee = imm & 1 == 1;
                self.pc += 4;
            }
            Rfi => {
                self.pc = self.srr0;
                self.msr_ee = self.srr1_ee;
                self.now += self.cfg.clock.cycles(2);
            }
            Mflr { rd } => {
                let lr = self.lr;
                self.set_reg(rd, lr);
                self.pc += 4;
            }
            Mtlr { ra } => {
                self.lr = self.reg(ra);
                self.pc += 4;
            }
            Sync | Nop => {
                self.pc += 4;
            }
        }
        StepOutcome::Executed
    }

    /// Runs until `halt` or `max_instrs` retire. Returns `true` if halted.
    pub fn run_until_halt<M: MemoryPort + ?Sized>(&mut self, mem: &mut M, max_instrs: u64) -> bool {
        for _ in 0..max_instrs {
            if self.step(mem) == StepOutcome::Halted {
                return true;
            }
        }
        self.halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::encode;
    use crate::mem::FlatMem;

    fn load_program(mem: &mut FlatMem, base: u32, instrs: &[Instr]) {
        for (i, &ins) in instrs.iter().enumerate() {
            mem.store_u32(base + 4 * i as u32, encode(ins));
        }
    }

    fn cpu200() -> Cpu {
        Cpu::new(CpuConfig::ppc405(ClockDomain::from_mhz("cpu", 200)))
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 40,
                },
                Instr::Addi {
                    rd: 4,
                    ra: 0,
                    imm: 2,
                },
                Instr::Add {
                    rd: 5,
                    ra: 3,
                    rb: 4,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        assert!(cpu.run_until_halt(&mut mem, 100));
        assert_eq!(cpu.reg(5), 42);
        assert_eq!(cpu.stats.retired, 4);
    }

    #[test]
    fn r0_is_hard_zero() {
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 0,
                    ra: 0,
                    imm: 99,
                },
                Instr::Add {
                    rd: 3,
                    ra: 0,
                    rb: 0,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 10);
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(3), 0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut mem = FlatMem::new(4096);
        mem.store_u32(256, 0x1234_5678);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 256,
                },
                Instr::Lwz {
                    rd: 4,
                    ra: 3,
                    imm: 0,
                },
                Instr::Stw {
                    rd: 4,
                    ra: 3,
                    imm: 4,
                },
                Instr::Lbz {
                    rd: 5,
                    ra: 3,
                    imm: 1,
                },
                Instr::Lhz {
                    rd: 6,
                    ra: 3,
                    imm: 2,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 100);
        assert_eq!(cpu.reg(4), 0x1234_5678);
        assert_eq!(cpu.reg(5), 0x34);
        assert_eq!(cpu.reg(6), 0x5678);
        // The store went through the (write-back) cache.
        cpu.dcache.flush_line(cpu.now(), 260, &mut mem);
        assert_eq!(mem.load_u32(260), 0x1234_5678);
    }

    #[test]
    fn branch_loop_counts() {
        // r3 = 10; loop: r4 += r3; r3 -= 1; bne loop
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 10,
                },
                Instr::Add {
                    rd: 4,
                    ra: 4,
                    rb: 3,
                },
                Instr::Addi {
                    rd: 3,
                    ra: 3,
                    imm: -1,
                },
                Instr::Cmpwi { ra: 3, imm: 0 },
                Instr::Bne { off: -3 },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 1000);
        assert_eq!(cpu.reg(4), 55);
        assert_eq!(cpu.stats.taken_branches, 9);
    }

    #[test]
    fn call_and_return() {
        // main: bl f; halt   f: addi r3,r0,7; blr
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Bl { off: 2 },
                Instr::Halt,
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 7,
                },
                Instr::Blr,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 10);
        assert_eq!(cpu.reg(3), 7);
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: -1,
                }, // 0xFFFF_FFFF
                Instr::Cmpwi { ra: 3, imm: 0 },
                Instr::Blt { off: 2 }, // signed: -1 < 0, taken
                Instr::Halt,
                Instr::Cmplwi { ra: 3, imm: 0 },
                Instr::Bgt { off: 2 }, // unsigned: max > 0, taken
                Instr::Halt,
                Instr::Addi {
                    rd: 4,
                    ra: 0,
                    imm: 1,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 100);
        assert_eq!(cpu.reg(4), 1, "both branches taken");
    }

    #[test]
    fn timing_counts_cycles_and_memory() {
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 1,
                },
                Instr::Mullw {
                    rd: 3,
                    ra: 3,
                    rb: 3,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 10);
        // 1 (addi) + 4 (mullw) + 1 (halt) = 6 cycles @5ns = 30ns, plus one
        // icache line fill (40ns in FlatMem).
        assert_eq!(cpu.now(), SimTime::from_ns(30 + 40));
        assert_eq!(cpu.icache.stats.misses, 1);
    }

    #[test]
    fn uncached_mmio_bypasses_dcache() {
        let mut mem = FlatMem::new(8192);
        mem.uncached_base = 0x1000;
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addis {
                    rd: 3,
                    ra: 0,
                    imm: 0,
                },
                Instr::Ori {
                    rd: 3,
                    ra: 3,
                    imm: 0x1000,
                },
                Instr::Addi {
                    rd: 4,
                    ra: 0,
                    imm: 0x5A,
                },
                Instr::Stw {
                    rd: 4,
                    ra: 3,
                    imm: 0,
                },
                Instr::Lwz {
                    rd: 5,
                    ra: 3,
                    imm: 0,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.run_until_halt(&mut mem, 100);
        assert_eq!(cpu.reg(5), 0x5A);
        assert_eq!(cpu.dcache.stats.misses, 0, "MMIO must not allocate");
        assert_eq!(mem.load_u32(0x1000), 0x5A, "write went straight to memory");
    }

    #[test]
    fn interrupt_entry_and_rfi() {
        let mut mem = FlatMem::new(8192);
        // Main at 0: enable irqs, spin incrementing r3.
        load_program(
            &mut mem,
            0,
            &[
                Instr::Wrteei { imm: 1 },
                Instr::Addi {
                    rd: 3,
                    ra: 3,
                    imm: 1,
                },
                Instr::Cmpwi { ra: 4, imm: 1 },
                Instr::Bne { off: -2 },
                Instr::Halt,
            ],
        );
        // Handler at the vector: set r4 = 1, rfi.
        load_program(
            &mut mem,
            0x500,
            &[
                Instr::Addi {
                    rd: 4,
                    ra: 0,
                    imm: 1,
                },
                Instr::Rfi,
            ],
        );
        let mut cpu = cpu200();
        // Run a few instructions, then raise the line.
        for _ in 0..10 {
            cpu.step(&mut mem);
        }
        assert_eq!(cpu.reg(4), 0);
        cpu.set_irq(true);
        cpu.step(&mut mem); // vectors + executes handler first instr
        cpu.set_irq(false); // handler "acknowledged" the source
        assert!(cpu.run_until_halt(&mut mem, 100));
        assert_eq!(cpu.reg(4), 1);
        assert_eq!(cpu.stats.interrupts, 1);
    }

    #[test]
    fn interrupts_masked_until_enabled() {
        let mut mem = FlatMem::new(8192);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 5,
                },
                Instr::Addi {
                    rd: 3,
                    ra: 3,
                    imm: -1,
                },
                Instr::Cmpwi { ra: 3, imm: 0 },
                Instr::Bne { off: -2 },
                Instr::Halt,
            ],
        );
        let mut cpu = cpu200();
        cpu.set_irq(true); // line high, but EE = 0
        assert!(cpu.run_until_halt(&mut mem, 100));
        assert_eq!(cpu.stats.interrupts, 0);
    }

    #[test]
    #[should_panic(expected = "illegal instruction 0xfc000000 at 0x00000008")]
    fn executing_an_undecodable_word_panics_with_the_word() {
        let mut mem = FlatMem::new(4096);
        load_program(&mut mem, 0, &[Instr::Nop, Instr::Nop]);
        mem.store_u32(8, 0xFC00_0000);
        // The fill decodes the whole line, illegal word included; only
        // executing it may panic.
        cpu200().run_until_halt(&mut mem, 10);
    }

    #[test]
    #[should_panic(expected = "unaligned instruction fetch at 0x00000006")]
    fn unaligned_fetch_panics() {
        let mut mem = FlatMem::new(4096);
        load_program(
            &mut mem,
            0,
            &[
                Instr::Addi {
                    rd: 3,
                    ra: 0,
                    imm: 6,
                },
                Instr::Mtlr { ra: 3 },
                Instr::Blr,
            ],
        );
        cpu200().run_until_halt(&mut mem, 10);
    }

    #[test]
    fn asm_program_executes() {
        // End-to-end: assemble text, run, check result (sum 1..=100).
        let src = r#"
            # sum the integers 1..=100
            addi r3, r0, 0       ; acc
            addi r4, r0, 100     ; n
        loop:
            add  r3, r3, r4
            addi r4, r4, -1
            cmpwi r4, 0
            bne loop
            halt
        "#;
        let prog = assemble(src, 0).unwrap();
        let mut mem = FlatMem::new(65536);
        for (i, w) in prog.words.iter().enumerate() {
            mem.store_u32(prog.base + 4 * i as u32, *w);
        }
        let mut cpu = cpu200();
        cpu.set_pc(prog.base);
        assert!(cpu.run_until_halt(&mut mem, 100_000));
        assert_eq!(cpu.reg(3), 5050);
    }
}
