//! The interpreter the micro-op executor replaced, kept as its reference.
//!
//! [`Cpu::reference_step`] fetches the word at the PC (out of the I-cache
//! line's bytes, or from memory with caches off), decodes it and runs it
//! through `exec`, a `match` over [`Instr`] that charges each instruction
//! by itself: `retired` and `now` before the operation, the PC after it,
//! and `r0` re-zeroed after every register write. It shares only the cache
//! and memory access paths and exception entry with the engines under
//! test.
//!
//! `micro_ops_match_the_instr_reference` runs generated programs (the
//! integration tests' `gen`) on the micro-op engines and on this one, and
//! requires equal architectural state, time, memory and counters after
//! every block.

use super::{Cpu, Cr, FaultKind, StepOutcome};
use crate::isa::{base_cycles, decode, Instr, TAKEN_BRANCH_PENALTY};
use crate::mem::MemoryPort;

impl Cpu {
    /// Executes one instruction (or takes a pending interrupt) the way the
    /// core did before micro-ops.
    pub(crate) fn reference_step<M: MemoryPort + ?Sized>(&mut self, mem: &mut M) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        self.take_pending_interrupt();
        assert!(
            self.pc.is_multiple_of(4),
            "unaligned instruction fetch at {:#010x}",
            self.pc
        );
        let word = if self.cfg.caches_enabled && mem.is_cacheable(self.pc) {
            let (line, t) = self.icache.fill(self.now, self.pc, mem);
            self.now += t;
            self.icache.word(line, self.pc)
        } else {
            let (word, t) = mem.read(self.now, self.pc, 4);
            self.now += t;
            if let Some(addr) = mem.take_fault() {
                self.fault(FaultKind::Fetch, self.pc, addr);
                return StepOutcome::Executed;
            }
            word
        };
        match decode(word) {
            Some(instr) => self.exec(instr, mem),
            None => self.fault(FaultKind::Illegal(word), self.pc, self.pc),
        }
        if self.halted {
            StepOutcome::Halted
        } else {
            StepOutcome::Executed
        }
    }

    /// Writes a register the old way: the write lands and `r0` is re-zeroed.
    fn set(&mut self, r: u8, v: u32) {
        self.regs[usize::from(r & 31)] = v;
        self.regs[0] = 0;
    }

    fn load_into<M: MemoryPort + ?Sized>(&mut self, rd: u8, addr: u32, size: u8, mem: &mut M) {
        let (v, _) = self.load(addr, size, mem);
        self.set(rd, v);
        self.refused(FaultKind::Load, mem);
    }

    fn store_reg<M: MemoryPort + ?Sized>(&mut self, rd: u8, addr: u32, size: u8, mem: &mut M) {
        let v = self.reg(rd);
        self.store(addr, size, v, mem);
        self.refused(FaultKind::Store, mem);
    }

    /// Moves past a load or store, into the machine check if the memory
    /// system refused it.
    fn refused<M: MemoryPort + ?Sized>(&mut self, kind: FaultKind, mem: &mut M) {
        let pc = self.pc;
        self.pc += 4;
        if let Some(addr) = mem.take_fault() {
            self.fault(kind, pc, addr);
        }
    }

    fn branch(&mut self, off: i16, taken: bool) {
        if taken {
            self.pc = self.pc.wrapping_add((i32::from(off) * 4) as u32);
            self.stats.taken_branches += 1;
            self.now += self.cfg.clock.cycles(TAKEN_BRANCH_PENALTY);
        } else {
            self.pc = self.pc.wrapping_add(4);
        }
    }

    /// Counts the instruction retired, charges its base cycles, then
    /// performs it.
    fn exec<M: MemoryPort + ?Sized>(&mut self, instr: Instr, mem: &mut M) {
        self.stats.retired += 1;
        self.now += self.cfg.clock.cycles(base_cycles(instr));
        let ea = |cpu: &Cpu, ra: u8, imm: i16| cpu.reg(ra).wrapping_add(imm as i32 as u32);
        let eax = |cpu: &Cpu, ra: u8, rb: u8| cpu.reg(ra).wrapping_add(cpu.reg(rb));
        use Instr::*;
        match instr {
            Halt => self.halted = true,
            Addi { rd, ra, imm } => {
                let v = self.reg(ra).wrapping_add(imm as i32 as u32);
                self.set(rd, v);
                self.pc += 4;
            }
            Addis { rd, ra, imm } => {
                let v = self.reg(ra).wrapping_add((imm as i32 as u32) << 16);
                self.set(rd, v);
                self.pc += 4;
            }
            Add { rd, ra, rb } => {
                let v = self.reg(ra).wrapping_add(self.reg(rb));
                self.set(rd, v);
                self.pc += 4;
            }
            Sub { rd, ra, rb } => {
                let v = self.reg(ra).wrapping_sub(self.reg(rb));
                self.set(rd, v);
                self.pc += 4;
            }
            Mullw { rd, ra, rb } => {
                let v = self.reg(ra).wrapping_mul(self.reg(rb));
                self.set(rd, v);
                self.pc += 4;
            }
            And { rd, ra, rb } => {
                let v = self.reg(ra) & self.reg(rb);
                self.set(rd, v);
                self.pc += 4;
            }
            Or { rd, ra, rb } => {
                let v = self.reg(ra) | self.reg(rb);
                self.set(rd, v);
                self.pc += 4;
            }
            Xor { rd, ra, rb } => {
                let v = self.reg(ra) ^ self.reg(rb);
                self.set(rd, v);
                self.pc += 4;
            }
            Nor { rd, ra, rb } => {
                let v = !(self.reg(ra) | self.reg(rb));
                self.set(rd, v);
                self.pc += 4;
            }
            Andi { rd, ra, imm } => {
                let v = self.reg(ra) & u32::from(imm);
                self.set(rd, v);
                self.pc += 4;
            }
            Ori { rd, ra, imm } => {
                let v = self.reg(ra) | u32::from(imm);
                self.set(rd, v);
                self.pc += 4;
            }
            Xori { rd, ra, imm } => {
                let v = self.reg(ra) ^ u32::from(imm);
                self.set(rd, v);
                self.pc += 4;
            }
            Slw { rd, ra, rb } => {
                let v = self.reg(ra) << (self.reg(rb) & 31);
                self.set(rd, v);
                self.pc += 4;
            }
            Srw { rd, ra, rb } => {
                let v = self.reg(ra) >> (self.reg(rb) & 31);
                self.set(rd, v);
                self.pc += 4;
            }
            Slwi { rd, ra, sh } => {
                let v = self.reg(ra) << sh;
                self.set(rd, v);
                self.pc += 4;
            }
            Srwi { rd, ra, sh } => {
                let v = self.reg(ra) >> sh;
                self.set(rd, v);
                self.pc += 4;
            }
            Srawi { rd, ra, sh } => {
                let v = ((self.reg(ra) as i32) >> sh) as u32;
                self.set(rd, v);
                self.pc += 4;
            }
            Rotlwi { rd, ra, sh } => {
                let v = self.reg(ra).rotate_left(u32::from(sh));
                self.set(rd, v);
                self.pc += 4;
            }
            Lwz { rd, ra, imm } => self.load_into(rd, ea(self, ra, imm), 4, mem),
            Lbz { rd, ra, imm } => self.load_into(rd, ea(self, ra, imm), 1, mem),
            Lhz { rd, ra, imm } => self.load_into(rd, ea(self, ra, imm), 2, mem),
            Stw { rd, ra, imm } => self.store_reg(rd, ea(self, ra, imm), 4, mem),
            Stb { rd, ra, imm } => self.store_reg(rd, ea(self, ra, imm), 1, mem),
            Sth { rd, ra, imm } => self.store_reg(rd, ea(self, ra, imm), 2, mem),
            Lwzx { rd, ra, rb } => self.load_into(rd, eax(self, ra, rb), 4, mem),
            Stwx { rd, ra, rb } => self.store_reg(rd, eax(self, ra, rb), 4, mem),
            Lbzx { rd, ra, rb } => self.load_into(rd, eax(self, ra, rb), 1, mem),
            Lhzx { rd, ra, rb } => self.load_into(rd, eax(self, ra, rb), 2, mem),
            Stbx { rd, ra, rb } => self.store_reg(rd, eax(self, ra, rb), 1, mem),
            Cmpw { ra, rb } => {
                self.cr = Cr::signed(self.reg(ra) as i32, self.reg(rb) as i32);
                self.pc += 4;
            }
            Cmplw { ra, rb } => {
                self.cr = Cr::unsigned(self.reg(ra), self.reg(rb));
                self.pc += 4;
            }
            Cmpwi { ra, imm } => {
                self.cr = Cr::signed(self.reg(ra) as i32, i32::from(imm));
                self.pc += 4;
            }
            Cmplwi { ra, imm } => {
                self.cr = Cr::unsigned(self.reg(ra), u32::from(imm));
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
                self.now += self.cfg.clock.cycles(TAKEN_BRANCH_PENALTY);
            }
            Beq { off } => self.branch(off, self.cr.eq),
            Bne { off } => self.branch(off, !self.cr.eq),
            Blt { off } => self.branch(off, self.cr.lt),
            Bge { off } => self.branch(off, !self.cr.lt),
            Bgt { off } => self.branch(off, self.cr.gt),
            Ble { off } => self.branch(off, !self.cr.gt),
            Dcbf { ra, imm } => {
                if self.cfg.caches_enabled {
                    let t = self.dcache.flush_line(self.now, ea(self, ra, imm), mem);
                    self.now += t;
                }
                self.pc += 4;
            }
            Dcbi { ra, imm } => {
                if self.cfg.caches_enabled {
                    self.dcache.invalidate_line(ea(self, ra, imm));
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
                self.set(rd, lr);
                self.pc += 4;
            }
            Mtlr { ra } => {
                self.lr = self.reg(ra);
                self.pc += 4;
            }
            Sync | Nop => self.pc += 4,
        }
    }
}

#[path = "../../tests/gen/mod.rs"]
mod gen;

#[cfg(test)]
mod tests {
    use super::super::{Cpu, CpuConfig, Fault, FaultKind};
    use super::gen::{Case, IrqMem, MEM_BYTES};
    use crate::mem::LINE_BYTES;
    use crate::uop::{Op, Uop, SINK, WORDS_PER_LINE};
    use vp2_sim::{ClockDomain, SimTime, SplitMix64};

    /// Cases: a quick sweep in debug builds, a deeper one in release.
    const CASES: u64 = if cfg!(debug_assertions) { 300 } else { 10_000 };
    /// Instructions a case may retire before it counts as hung.
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

    fn assert_same(uop: &Run, reference: &Run, what: &str) {
        let (a, b) = (&uop.cpu, &reference.cpu);
        assert_eq!(a.regs[..32], b.regs[..32], "{what}: registers");
        assert_eq!(a.regs[0], 0, "{what}: r0");
        assert_eq!(a.pc, b.pc, "{what}: pc");
        assert_eq!(a.now, b.now, "{what}: now");
        assert_eq!(a.cr, b.cr, "{what}: cr");
        assert_eq!(a.lr, b.lr, "{what}: lr");
        assert_eq!(
            (a.msr_ee, a.irq_line, a.srr0, a.srr1_ee),
            (b.msr_ee, b.irq_line, b.srr0, b.srr1_ee),
            "{what}: interrupt state"
        );
        assert_eq!(a.last_fault, b.last_fault, "{what}: last fault");
        assert_eq!(a.halted, b.halted, "{what}: halted");
        assert_eq!(a.stats, b.stats, "{what}: cpu stats");
        assert_eq!(a.icache.stats, b.icache.stats, "{what}: icache stats");
        assert_eq!(a.dcache.stats, b.dcache.stats, "{what}: dcache stats");
        assert_eq!(uop.mem.level, reference.mem.level, "{what}: irq level");
        assert!(
            uop.mem.log == reference.mem.log,
            "{what}: memory accesses and their instants"
        );
        assert!(
            uop.mem.flat.bytes == reference.mem.flat.bytes,
            "{what}: memory"
        );
    }

    /// What the cases exercised, so the test cannot pass vacuously.
    #[derive(Default)]
    struct Coverage {
        interrupts: u64,
        /// Cases that ended in the program exception.
        illegal: u64,
        /// Machine checks taken.
        checks: u64,
        budget_cut: u64,
        cache_off: u64,
        /// Program words that write `r0`.
        r0_writes: u64,
        /// Compares in the last word of a line, their branch in the next.
        straddles: u64,
    }

    #[test]
    fn micro_ops_match_the_instr_reference() {
        let mut seen = Coverage::default();
        for n in 0..CASES {
            let mut rng = SplitMix64::new(0x0AC1_E405 + n);
            let case = Case::draw(&mut rng);
            let ops: Vec<Uop> = case.code().iter().map(|&w| Uop::translate(w).0).collect();
            seen.r0_writes += ops.iter().filter(|u| u.rd == SINK).count() as u64;
            seen.straddles += ops
                .iter()
                .enumerate()
                .filter(|&(k, u)| {
                    k % WORDS_PER_LINE == WORDS_PER_LINE - 1
                        && matches!(u.op, Op::Cmpw | Op::Cmplw | Op::Cmpwi | Op::Cmplwi)
                })
                .count() as u64;
            let mut cfg = CpuConfig::ppc405(ClockDomain::from_mhz("cpu", 300));
            cfg.vector_base = case.vectors;
            cfg.icache_bytes = 128 << rng.below(8);
            cfg.dcache_bytes = 128 << rng.below(8);
            cfg.caches_enabled = !rng.chance(1, 8);
            seen.cache_off += u64::from(!cfg.caches_enabled);
            let init = Run {
                cpu: Cpu::new(cfg),
                mem: IrqMem::new(case.memory()),
            };
            let (mut uop, mut reference) = (init.clone(), init);
            let mut retired = 0;
            while !uop.cpu.halted() {
                assert!(retired < MAX_INSTRS, "case {n}: program must halt");
                let budget = if rng.chance(1, 3) {
                    1 + rng.below(8)
                } else {
                    1 + rng.below(400)
                };
                let mut ran = uop.cpu.run_block(&mut uop.mem, budget);
                if ran == 0 {
                    uop.cpu.step(&mut uop.mem);
                    ran = 1;
                } else if ran == budget && !uop.cpu.halted() {
                    seen.budget_cut += 1;
                }
                uop.sync();
                for _ in 0..ran {
                    reference.cpu.reference_step(&mut reference.mem);
                    reference.sync();
                }
                retired += ran;
                assert_same(
                    &uop,
                    &reference,
                    &format!("case {n} after {retired} instrs"),
                );
            }
            assert!(
                uop.flushed_memory() == reference.flushed_memory(),
                "case {n}: written-back memory"
            );
            seen.interrupts += uop.cpu.stats.interrupts;
            seen.checks += u64::from(uop.cpu.regs[27]);
            seen.illegal += u64::from(matches!(
                uop.cpu.last_fault,
                Some(Fault {
                    kind: FaultKind::Illegal(_),
                    ..
                })
            ));
        }
        let min = CASES / 6;
        assert!(seen.interrupts > min, "interrupts: {}", seen.interrupts);
        assert!(seen.budget_cut > min, "budget cuts: {}", seen.budget_cut);
        assert!(seen.cache_off > CASES / 20, "cache-off: {}", seen.cache_off);
        assert!(seen.r0_writes > min, "r0 writes: {}", seen.r0_writes);
        assert!(seen.straddles > min, "straddles: {}", seen.straddles);
        assert!(seen.checks > min, "machine checks: {}", seen.checks);
        assert!(
            seen.illegal > CASES / 20,
            "program exceptions: {}",
            seen.illegal
        );
    }
}
