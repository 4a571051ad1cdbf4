//! The CPU core: fetch, micro-op execution and cycle accounting.
//!
//! Each instruction advances the core's own [`SimTime`] by its base cycles
//! plus whatever time the memory system reports for cache misses and
//! uncached (MMIO) accesses. Instructions execute as micro-ops (see the
//! `uop` module), and one executor, `Cpu::exec_run`, holds their
//! semantics. It runs micro-ops until an end-of-line sentinel, a taken
//! branch or an op that ends a block, and charges time once per
//! straight-line run: the ops' retirement and base cycles stay pending
//! and are added to `stats.retired` and `now`, and the PC is set, when the
//! run ends. Before every load, store and `dcbf` the pending cycles are
//! flushed into `now` first, and a run ends before every line fill, so
//! the memory system sees exactly the instants it would if each
//! instruction charged itself. Two engines drive the executor:
//!
//! - [`Cpu::step`] executes one instruction, taking a pending interrupt
//!   first: the fetched micro-op runs on its own, followed by a sentinel.
//!   It is the engine for the DMA, interrupt, uncached and cache-off
//!   paths, and the one the block engine is fuzzed against.
//! - [`Cpu::run_block`] runs the micro-op lines of resident I-cache lines:
//!   it looks each line up once, charges the further fetches from it as
//!   hits in bulk, and chains to the next line on fall-through or a taken
//!   branch. A block ends after `halt`, `wrteei`, `rfi`, any uncached load
//!   or store, or when its instruction budget is spent. It runs nothing
//!   (returns 0) with caches off, at an unaligned or uncacheable PC, or
//!   with an interrupt pending (`MSR[EE]` and the line high).
//!
//! Nothing outside the core can change its state inside a block: only an
//! uncached access reaches a device, and every interrupt-mask change ends
//! the block. `rtr-core` therefore syncs the platform once per block
//! (`Machine::run_until_halt`) and falls back to one step at a time
//! while DMA is active (`Machine::step`).
//!
//! With caches on, micro-ops come from the instruction cache, translated
//! once per line fill (see [`crate::cache`]); with caches off, every fetch
//! reads memory and translates the word, which keeps the cache-off
//! ablation a decode-per-fetch reference for the cached lines. The
//! executor the micro-ops replaced, a `match` over decoded instructions
//! that charged each instruction by itself, is kept under `#[cfg(test)]`
//! as the reference both engines are checked against.
//!
//! Every method that touches memory is generic over the [`MemoryPort`], so
//! the machine's interpreter loop is monomorphised over its platform and
//! the cache hit paths inline.
//!
//! An access the memory system refuses and an undecodable word do not
//! stop the core: the guest takes an exception, recorded as a [`Fault`]
//! (an unaligned access or fetch is still asserted). Every exception
//! saves the PC to resume at in SRR0 and `MSR[EE]` in SRR1, clears
//! `MSR[EE]`, costs 4 cycles of entry and jumps to its vector, an offset
//! from [`CpuConfig::vector_base`]:
//!
//! - machine check ([`MACHINE_CHECK_VECTOR`]): the memory system refused
//!   an uncached access ([`MemoryPort::take_fault`]). A refused load or
//!   store retires (the load writes 0, the store is dropped) and SRR0
//!   holds the next instruction, so `rfi` resumes after it. A refused
//!   fetch executes nothing and SRR0 holds the fetch address;
//! - external interrupt ([`EXTERNAL_VECTOR`]): taken before an
//!   instruction, SRR0 holds that instruction;
//! - program ([`PROGRAM_VECTOR`]): an undecodable word does not retire and
//!   SRR0 holds its address.
//!
//! Unlike the 405, the machine check uses SRR0/SRR1 and `rfi`, not the
//! critical-interrupt pair SRR2/SRR3 and `rfci`.

use crate::cache::Cache;
use crate::isa::TAKEN_BRANCH_PENALTY;
use crate::mem::{MemoryPort, LINE_BYTES};
use crate::uop::{dest, MicroLine, Op, Uop, WORDS_PER_LINE};
use vp2_sim::{ClockDomain, SimTime};

/// Register slots: `r0..=r31`, the [`SINK`](crate::uop::SINK) at 32, and
/// padding to a power of two, so a masked slot index needs no bounds
/// check.
const REG_SLOTS: usize = 64;

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

impl Cr {
    fn signed(a: i32, b: i32) -> Cr {
        Cr {
            lt: a < b,
            gt: a > b,
            eq: a == b,
        }
    }

    fn unsigned(a: u32, b: u32) -> Cr {
        Cr {
            lt: a < b,
            gt: a > b,
            eq: a == b,
        }
    }
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
    /// Base of the exception vectors (the 405's EVPR): each vector sits at
    /// its fixed offset above it.
    pub vector_base: u32,
}

/// Offset of the machine-check vector from [`CpuConfig::vector_base`].
pub const MACHINE_CHECK_VECTOR: u32 = 0x0200;
/// Offset of the external-interrupt vector.
pub const EXTERNAL_VECTOR: u32 = 0x0500;
/// Offset of the program-exception vector.
pub const PROGRAM_VECTOR: u32 = 0x0700;

/// What raised a guest exception (see the module docs for each one's
/// vector and SRR0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The memory system refused an instruction fetch: a machine check.
    Fetch,
    /// The memory system refused a load: a machine check.
    Load,
    /// The memory system refused a store: a machine check.
    Store,
    /// An undecodable instruction word: a program exception.
    Illegal(u32),
}

/// A guest exception the core took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What raised it.
    pub kind: FaultKind,
    /// The instruction that raised it.
    pub pc: u32,
    /// The address the refused access named (the memory system's report);
    /// for [`FaultKind::Illegal`], the word's own address.
    pub addr: u32,
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
            vector_base: 0,
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub retired: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Loads + stores executed.
    pub mem_ops: u64,
    /// Interrupts and exceptions taken.
    pub interrupts: u64,
}

/// The CPU core.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; REG_SLOTS],
    lr: u32,
    pc: u32,
    cr: Cr,
    now: SimTime,
    halted: bool,
    msr_ee: bool,
    srr0: u32,
    srr1_ee: bool,
    irq_line: bool,
    last_fault: Option<Fault>,
    cfg: CpuConfig,
    /// Instruction cache.
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
    /// Statistics.
    pub stats: CpuStats,
}

/// The micro-ops [`Cpu::exec_run`] runs, op `k` at `base + 4k`: the ops
/// of one source end in a sentinel.
trait Ops {
    /// The op at index `k`.
    fn op(&self, k: usize) -> Uop;
    /// The base cycles of ops `0..k`.
    fn cycles_before(&self, k: usize) -> u64;
}

impl Ops for MicroLine {
    #[inline(always)]
    fn op(&self, k: usize) -> Uop {
        MicroLine::op(self, k)
    }

    #[inline(always)]
    fn cycles_before(&self, k: usize) -> u64 {
        MicroLine::cycles_before(self, k)
    }
}

/// One micro-op on its own, then the sentinel.
struct Single {
    op: Uop,
    cycles: u64,
}

impl Single {
    /// Op `k` of a micro-op line.
    #[inline]
    fn of_line(line: &MicroLine, k: usize) -> Single {
        Single {
            op: line.op(k),
            cycles: line.cycles_before(k + 1) - line.cycles_before(k),
        }
    }

    /// A word fetched from memory.
    #[inline]
    fn translate(word: u32) -> Single {
        let (op, cycles) = Uop::translate(word);
        Single {
            op,
            cycles: u64::from(cycles),
        }
    }
}

impl Ops for Single {
    #[inline(always)]
    fn op(&self, k: usize) -> Uop {
        if k == 0 {
            self.op
        } else {
            Uop::END
        }
    }

    #[inline(always)]
    fn cycles_before(&self, k: usize) -> u64 {
        if k == 0 {
            0
        } else {
            self.cycles
        }
    }
}

/// How a run of micro-ops ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// At the sentinel or a taken branch: the PC moved on to code the block
    /// may chain to.
    Next,
    /// After `halt`, `wrteei`, `rfi` or an uncached access: the block ends.
    Stop,
}

/// The index of `addr`'s word within its cache line.
#[inline]
fn word_index(addr: u32) -> usize {
    (addr as usize >> 2) & (WORDS_PER_LINE - 1)
}

impl Cpu {
    /// Builds a core; PC starts at 0.
    pub fn new(cfg: CpuConfig) -> Self {
        let icache = Cache::instruction(cfg.icache_bytes, cfg.ways);
        let dcache = Cache::new(cfg.dcache_bytes, cfg.ways);
        Cpu {
            regs: [0; REG_SLOTS],
            lr: 0,
            pc: 0,
            cr: Cr::default(),
            now: SimTime::ZERO,
            halted: false,
            msr_ee: false,
            srr0: 0,
            srr1_ee: false,
            irq_line: false,
            last_fault: None,
            cfg,
            icache,
            dcache,
            stats: CpuStats::default(),
        }
    }

    /// Reads a register (`r0` is hard zero).
    #[inline]
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[usize::from(r & 31)]
    }

    /// Writes a register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: u8, v: u32) {
        self.w(dest(r), v);
    }

    /// Reads register slot `slot` (a register, or the sink).
    #[inline(always)]
    fn r(&self, slot: u8) -> u32 {
        self.regs[usize::from(slot) & (REG_SLOTS - 1)]
    }

    /// Writes register slot `slot` (a micro-op's destination).
    #[inline(always)]
    fn w(&mut self, slot: u8, v: u32) {
        self.regs[usize::from(slot) & (REG_SLOTS - 1)] = v;
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

    /// Are external interrupts enabled (`MSR[EE]`)?
    pub fn interrupts_enabled(&self) -> bool {
        self.msr_ee
    }

    /// Save/restore register 0: where the last exception resumes.
    pub fn srr0(&self) -> u32 {
        self.srr0
    }

    /// The last exception a guest fault raised, if any.
    pub fn last_fault(&self) -> Option<Fault> {
        self.last_fault
    }

    /// Core clock domain.
    pub fn clock(&self) -> ClockDomain {
        self.cfg.clock
    }

    /// Loads `size` bytes at `addr`; returns the value and whether the
    /// access went uncached (which ends a block).
    #[inline(always)]
    fn load<M: MemoryPort + ?Sized>(&mut self, addr: u32, size: u8, mem: &mut M) -> (u32, bool) {
        assert_eq!(
            addr & (u32::from(size) - 1),
            0,
            "unaligned {size}-byte load at {addr:#010x}"
        );
        self.stats.mem_ops += 1;
        if self.cfg.caches_enabled && mem.is_cacheable(addr) {
            let (v, t) = self.dcache.read(self.now, addr, size, mem);
            self.now += t;
            (v, false)
        } else {
            let (v, t) = mem.read(self.now, addr, size);
            self.now += t;
            (v, true)
        }
    }

    /// Stores `size` bytes at `addr`; returns whether the access went
    /// uncached (which ends a block).
    #[inline(always)]
    fn store<M: MemoryPort + ?Sized>(
        &mut self,
        addr: u32,
        size: u8,
        data: u32,
        mem: &mut M,
    ) -> bool {
        assert_eq!(
            addr & (u32::from(size) - 1),
            0,
            "unaligned {size}-byte store at {addr:#010x}"
        );
        self.stats.mem_ops += 1;
        if self.cfg.caches_enabled && mem.is_cacheable(addr) {
            let t = self.dcache.write(self.now, addr, size, data, mem);
            self.now += t;
            false
        } else {
            let t = mem.write(self.now, addr, size, data);
            self.now += t;
            true
        }
    }

    /// Enters the handler at `vector`, to resume at `srr0`.
    #[inline]
    fn enter(&mut self, vector: u32, srr0: u32) {
        self.srr0 = srr0;
        self.srr1_ee = self.msr_ee;
        self.msr_ee = false;
        self.pc = self.cfg.vector_base.wrapping_add(vector);
        self.stats.interrupts += 1;
        // Exception entry latency.
        self.now += self.cfg.clock.cycles(4);
    }

    /// Enters the external-interrupt handler if one is pending.
    #[inline]
    fn take_pending_interrupt(&mut self) {
        if self.msr_ee && self.irq_line {
            self.enter(EXTERNAL_VECTOR, self.pc);
        }
    }

    /// Records a guest fault raised by the instruction at `pc` and takes
    /// its exception.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, kind: FaultKind, pc: u32, addr: u32) {
        let (vector, srr0) = match kind {
            FaultKind::Load | FaultKind::Store => (MACHINE_CHECK_VECTOR, pc.wrapping_add(4)),
            FaultKind::Fetch => (MACHINE_CHECK_VECTOR, pc),
            FaultKind::Illegal(_) => (PROGRAM_VECTOR, pc),
        };
        self.last_fault = Some(Fault { kind, pc, addr });
        self.enter(vector, srr0);
    }

    /// Executes one instruction (or takes a pending interrupt).
    #[inline]
    pub fn step<M: MemoryPort + ?Sized>(&mut self, mem: &mut M) -> StepOutcome {
        if self.halted {
            return StepOutcome::Halted;
        }
        self.take_pending_interrupt();
        self.exec_one(mem);
        if self.halted {
            StepOutcome::Halted
        } else {
            StepOutcome::Executed
        }
    }

    /// Fetches the instruction at the PC and executes its micro-op on its
    /// own.
    #[inline]
    fn exec_one<M: MemoryPort + ?Sized>(&mut self, mem: &mut M) -> Exit {
        let pc = self.pc;
        assert!(
            pc.is_multiple_of(4),
            "unaligned instruction fetch at {pc:#010x}"
        );
        let single = if self.cfg.caches_enabled && mem.is_cacheable(pc) {
            let (line, t) = self.icache.fill(self.now, pc, mem);
            self.now += t;
            Single::of_line(self.icache.micro_line(line), word_index(pc))
        } else {
            let (word, t) = mem.read(self.now, pc, 4);
            self.now += t;
            if let Some(addr) = mem.take_fault() {
                self.fault(FaultKind::Fetch, pc, addr);
                return Exit::Stop;
            }
            Single::translate(word)
        };
        self.exec_run(&single, pc, 0, mem).0
    }

    /// Runs a block: the micro-op lines of resident I-cache lines, from the
    /// PC on, until `halt`, `wrteei`, `rfi`, an uncached load or store, an
    /// exception, `budget` instructions, or a PC the block cannot fetch
    /// (unaligned or uncacheable). Returns the instructions run (retired,
    /// or an undecodable word); 0 means nothing ran and the caller must
    /// [`step`](Cpu::step) — with caches off, when halted, or with an
    /// interrupt pending. Leaves exactly the state that many steps would,
    /// provided no one drives the interrupt line in between.
    #[inline]
    pub fn run_block<M: MemoryPort + ?Sized>(&mut self, mem: &mut M, budget: u64) -> u64 {
        if self.halted || !self.cfg.caches_enabled || (self.msr_ee && self.irq_line) {
            return 0;
        }
        let mut ran = 0;
        while ran < budget && self.pc.is_multiple_of(4) && mem.is_cacheable(self.pc) {
            let first = word_index(self.pc);
            if budget - ran < (WORDS_PER_LINE - first) as u64 {
                // The budget ends inside this line: one instruction at a
                // time. Each fetch is a hit, as a charged one would be.
                ran += 1;
                if self.exec_one(mem) == Exit::Stop {
                    break;
                }
                continue;
            }
            // One lookup per line: its first fetch counts the hit or miss,
            // the rest are charged as hits when the block leaves the line.
            let (line, t) = self.icache.fill(self.now, self.pc, mem);
            self.now += t;
            let base = self.pc & !(LINE_BYTES as u32 - 1);
            // The run reads a copy of the line, not the cache: no op reloads
            // the cache's micro-op array or bounds-checks the line index.
            let ops = *self.icache.micro_line(line);
            let (exit, end) = self.exec_run(&ops, base, first, mem);
            self.icache.charge_hits(line, (end - first - 1) as u64);
            ran += (end - first) as u64;
            if exit == Exit::Stop {
                break;
            }
        }
        ran
    }

    /// Adds ops `from..to` of `ops` to `stats.retired` and their base
    /// cycles to `now`.
    #[inline(always)]
    fn charge<S: Ops>(&mut self, ops: &S, from: usize, to: usize) {
        self.stats.retired += (to - from) as u64;
        let cycles = ops.cycles_before(to) - ops.cycles_before(from);
        self.now += self.cfg.clock.cycles(cycles);
    }

    /// Takes the branch at index `k` to `target`, charging the run
    /// `from..=k` and the pipeline refill.
    #[inline(always)]
    fn jump<S: Ops>(&mut self, ops: &S, from: usize, k: usize, target: u32) -> (Exit, usize) {
        self.charge(ops, from, k + 1);
        self.stats.taken_branches += 1;
        self.now += self.cfg.clock.cycles(TAKEN_BRANCH_PENALTY);
        self.pc = target;
        (Exit::Next, k + 1)
    }

    /// The micro-op executor: runs `ops` from index `k` on, op `j` at
    /// `base + 4j`, until the sentinel, a taken branch, or an op that ends
    /// a block. Returns how the run ended and the index after the last op
    /// executed; the PC, `stats.retired` and `now` are then up to date.
    ///
    /// Ops `from..k` have executed but are not yet charged: ALU ops,
    /// compares, not-taken branches and `nop`s only move `k`. The pending
    /// run is charged when the run ends, and before every op that needs the
    /// exact time — a load, store or `dcbf` — so that op reaches the memory
    /// system at the instant it would one instruction at a time.
    #[inline(always)]
    fn exec_run<S: Ops, M: MemoryPort + ?Sized>(
        &mut self,
        ops: &S,
        base: u32,
        mut k: usize,
        mem: &mut M,
    ) -> (Exit, usize) {
        let at = |j: usize| base.wrapping_add(4 * j as u32);
        let mut from = k;
        loop {
            let Uop {
                op,
                rd,
                ra,
                rb,
                imm,
            } = ops.op(k);
            // A load or store at `ra + rb + imm`: flush the pending run,
            // then access memory; an uncached access ends the block, and
            // one the memory system refused raises a machine check.
            macro_rules! access {
                ($access:ident, $size:literal, $kind:ident) => {{
                    self.charge(ops, from, k + 1);
                    from = k + 1;
                    let addr = self.r(ra).wrapping_add(self.r(rb)).wrapping_add(imm);
                    if self.$access(rd, addr, $size, mem) {
                        self.pc = at(k + 1);
                        if let Some(addr) = mem.take_fault() {
                            self.fault(FaultKind::$kind, at(k), addr);
                        }
                        return (Exit::Stop, k + 1);
                    }
                }};
            }
            // A conditional branch by `imm` bytes.
            macro_rules! branch_if {
                ($taken:expr) => {
                    if $taken {
                        return self.jump(ops, from, k, at(k).wrapping_add(imm));
                    }
                };
            }
            match op {
                Op::Add => self.w(rd, self.r(ra).wrapping_add(self.r(rb))),
                Op::Sub => self.w(rd, self.r(ra).wrapping_sub(self.r(rb))),
                Op::Mullw => self.w(rd, self.r(ra).wrapping_mul(self.r(rb))),
                Op::And => self.w(rd, self.r(ra) & self.r(rb)),
                Op::Or => self.w(rd, self.r(ra) | self.r(rb)),
                Op::Xor => self.w(rd, self.r(ra) ^ self.r(rb)),
                Op::Nor => self.w(rd, !(self.r(ra) | self.r(rb))),
                Op::Slw => self.w(rd, self.r(ra).wrapping_shl(self.r(rb))),
                Op::Srw => self.w(rd, self.r(ra).wrapping_shr(self.r(rb))),
                Op::Addi => self.w(rd, self.r(ra).wrapping_add(imm)),
                Op::Andi => self.w(rd, self.r(ra) & imm),
                Op::Ori => self.w(rd, self.r(ra) | imm),
                Op::Xori => self.w(rd, self.r(ra) ^ imm),
                Op::Slwi => self.w(rd, self.r(ra).wrapping_shl(imm)),
                Op::Srwi => self.w(rd, self.r(ra).wrapping_shr(imm)),
                Op::Srawi => self.w(rd, (self.r(ra) as i32).wrapping_shr(imm) as u32),
                Op::Rotlwi => self.w(rd, self.r(ra).rotate_left(imm)),
                Op::Lw => access!(load_to, 4, Load),
                Op::Lh => access!(load_to, 2, Load),
                Op::Lb => access!(load_to, 1, Load),
                Op::Sw => access!(store_from, 4, Store),
                Op::Sh => access!(store_from, 2, Store),
                Op::Sb => access!(store_from, 1, Store),
                Op::Cmpw => self.cr = Cr::signed(self.r(ra) as i32, self.r(rb) as i32),
                Op::Cmplw => self.cr = Cr::unsigned(self.r(ra), self.r(rb)),
                Op::Cmpwi => self.cr = Cr::signed(self.r(ra) as i32, imm as i32),
                Op::Cmplwi => self.cr = Cr::unsigned(self.r(ra), imm),
                Op::B => return self.jump(ops, from, k, at(k).wrapping_add(imm)),
                Op::Bl => {
                    self.lr = at(k + 1);
                    return self.jump(ops, from, k, at(k).wrapping_add(imm));
                }
                Op::Blr => return self.jump(ops, from, k, self.lr),
                Op::Beq => branch_if!(self.cr.eq),
                Op::Bne => branch_if!(!self.cr.eq),
                Op::Blt => branch_if!(self.cr.lt),
                Op::Bge => branch_if!(!self.cr.lt),
                Op::Bgt => branch_if!(self.cr.gt),
                Op::Ble => branch_if!(!self.cr.gt),
                Op::Dcbf => {
                    self.charge(ops, from, k + 1);
                    from = k + 1;
                    if self.cfg.caches_enabled {
                        let addr = self.r(ra).wrapping_add(imm);
                        let t = self.dcache.flush_line(self.now, addr, mem);
                        self.now += t;
                    }
                }
                Op::Dcbi => {
                    if self.cfg.caches_enabled {
                        self.dcache.invalidate_line(self.r(ra).wrapping_add(imm));
                    }
                }
                Op::Wrteei => {
                    self.charge(ops, from, k + 1);
                    self.msr_ee = imm == 1;
                    self.pc = at(k + 1);
                    return (Exit::Stop, k + 1);
                }
                Op::Rfi => {
                    self.charge(ops, from, k + 1);
                    self.pc = self.srr0;
                    self.msr_ee = self.srr1_ee;
                    self.now += self.cfg.clock.cycles(2);
                    return (Exit::Stop, k + 1);
                }
                Op::Mflr => self.w(rd, self.lr),
                Op::Mtlr => self.lr = self.r(ra),
                Op::Halt => {
                    self.charge(ops, from, k + 1);
                    self.halted = true;
                    self.pc = at(k);
                    return (Exit::Stop, k + 1);
                }
                Op::Nop => {}
                Op::Illegal => {
                    self.charge(ops, from, k);
                    self.fault(FaultKind::Illegal(imm), at(k), at(k));
                    return (Exit::Stop, k + 1);
                }
                Op::End => {
                    self.charge(ops, from, k);
                    self.pc = at(k);
                    return (Exit::Next, k);
                }
            }
            k += 1;
        }
    }

    /// Loads into slot `rd`; returns whether the access went uncached.
    #[inline(always)]
    fn load_to<M: MemoryPort + ?Sized>(
        &mut self,
        rd: u8,
        addr: u32,
        size: u8,
        mem: &mut M,
    ) -> bool {
        let (v, uncached) = self.load(addr, size, mem);
        self.w(rd, v);
        uncached
    }

    /// Stores register `rs`; returns whether the access went uncached.
    #[inline(always)]
    fn store_from<M: MemoryPort + ?Sized>(
        &mut self,
        rs: u8,
        addr: u32,
        size: u8,
        mem: &mut M,
    ) -> bool {
        let v = self.r(rs);
        self.store(addr, size, v, mem)
    }

    /// Runs until `halt` or `max_instrs` retire. Returns `true` if halted.
    /// Nothing drives the interrupt line in between, so whole blocks run
    /// wherever [`Cpu::run_block`] can.
    pub fn run_until_halt<M: MemoryPort + ?Sized>(&mut self, mem: &mut M, max_instrs: u64) -> bool {
        let mut left = max_instrs;
        while left > 0 && !self.halted {
            left -= match self.run_block(mem, left) {
                0 => {
                    self.step(mem);
                    1
                }
                ran => ran,
            };
        }
        self.halted
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::{encode, Instr};
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
    fn executing_an_undecodable_word_takes_the_program_exception() {
        let mut mem = FlatMem::new(4096);
        load_program(&mut mem, 0, &[Instr::Nop, Instr::Nop]);
        mem.store_u32(8, 0xFC00_0000);
        load_program(&mut mem, PROGRAM_VECTOR, &[Instr::Halt]);
        // The fill decodes the whole line, illegal word included; only
        // executing it raises the exception.
        let mut cpu = cpu200();
        assert!(cpu.run_until_halt(&mut mem, 10));
        assert_eq!(cpu.srr0(), 0x8, "SRR0 holds the undecodable word");
        assert_eq!(cpu.pc(), PROGRAM_VECTOR, "halted at the vector");
        assert_eq!(cpu.stats.retired, 3, "two nops and the handler's halt");
        assert_eq!(
            cpu.last_fault(),
            Some(Fault {
                kind: FaultKind::Illegal(0xFC00_0000),
                pc: 0x8,
                addr: 0x8,
            })
        );
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
