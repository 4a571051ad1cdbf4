//! Random-program generator shared by the interpreter property tests.
//!
//! A [`Case`] is a program at address 0 (ALU ops, loads and stores into a
//! cached data window, uncached accesses to an I/O window, a doorbell that
//! raises the interrupt level, accesses the memory refuses, `wrteei 0/1`,
//! forward skips, bounded loops, and an undecodable word parked after
//! `halt` in the same cache line) plus handlers at the exception vectors
//! above [`Case::vectors`]. Some ops write `r0`, whose writes must vanish,
//! and some compare-and-branch pairs straddle a cache line boundary. One
//! program in eight has an undecodable word where it will execute, and its
//! program-exception handler halts. [`IrqMem`] is the memory that turns
//! the doorbell into an interrupt level and refuses the fault word. Cases
//! are drawn from `SplitMix64`, so a failure reproduces exactly and the
//! tests need no external crates.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use ppc405_sim::cpu::{EXTERNAL_VECTOR, MACHINE_CHECK_VECTOR, PROGRAM_VECTOR};
use ppc405_sim::isa::{Form, Reg, Row, ROWS};
use ppc405_sim::mem::{MemoryPort, LINE_BYTES};
use ppc405_sim::{decode, encode, FlatMem, Instr};
use vp2_sim::{SimTime, SplitMix64};

pub const MEM_BYTES: usize = 0x8000;
/// The data window cached loads and stores land in.
const DATA: u32 = 0x4000;
const DATA_BYTES: u32 = 0x400;
/// Addresses from here up are uncached (`FlatMem::uncached_base`).
const UNCACHED: u32 = 0x6000;
/// The uncached doorbell word: loading it raises the interrupt level, and
/// storing a value sets the level to the value's low bit (in the tests'
/// memory that models it).
pub const DOORBELL: u32 = UNCACHED;
/// Uncached words generated accesses may touch, above the doorbell.
const IO_WORDS: u64 = 63;
/// The uncached word the memory refuses (a bus error: a machine check),
/// above the I/O words.
const FAULT: u32 = UNCACHED + 0x100;
/// Holds `DATA`; never written by generated ops.
const BASE_REG: Reg = 20;
/// Loop counter; never written by generated ops.
const COUNT_REG: Reg = 21;
/// Word-aligned window offset for indexed accesses.
const INDEX_REG: Reg = 22;
/// Holds `UNCACHED`; never written by generated ops.
const IO_REG: Reg = 23;
/// Holds 1, the value that rings the doorbell.
const ONE_REG: Reg = 24;
/// The handler's entry count and scratch register.
const IRQ_COUNT_REG: Reg = 25;
const IRQ_SCRATCH_REG: Reg = 26;
/// The machine-check handler's entry count.
const CHECK_COUNT_REG: Reg = 27;
/// A word no opcode decodes to.
pub const ILLEGAL: u32 = 0xFC00_0000;

/// A generated program and where its exception handlers live.
pub struct Case {
    /// Program words, loaded at address 0.
    code: Vec<u32>,
    /// The exception vector base: the handlers are cached, or in the
    /// uncached window, where no block can run them.
    pub vectors: u32,
}

impl Case {
    pub fn draw(rng: &mut SplitMix64) -> Case {
        let code = program(rng);
        let vectors = if rng.chance(3, 4) { 0x2000 } else { 0x6800 };
        Case { code, vectors }
    }

    /// The program's words.
    pub fn code(&self) -> &[u32] {
        &self.code
    }

    /// The case's memory: program, handlers and the uncached window.
    pub fn memory(&self) -> FlatMem {
        let mut mem = FlatMem::new(MEM_BYTES);
        mem.uncached_base = UNCACHED;
        for (i, &w) in self.code.iter().enumerate() {
            mem.store_u32(4 * i as u32, w);
        }
        let check = [
            Instr::Addi {
                rd: CHECK_COUNT_REG,
                ra: CHECK_COUNT_REG,
                imm: 1,
            },
            Instr::Rfi,
        ];
        let handlers: [(u32, &[Instr]); 3] = [
            (EXTERNAL_VECTOR, &handler()),
            (MACHINE_CHECK_VECTOR, &check),
            (PROGRAM_VECTOR, &[Instr::Halt]),
        ];
        for (vector, code) in handlers {
            for (i, &ins) in code.iter().enumerate() {
                mem.store_u32(self.vectors + vector + 4 * i as u32, encode(ins));
            }
        }
        mem
    }
}

/// [`FlatMem`] plus the interrupt level its doorbell word drives: an
/// uncached load from the doorbell raises the level and a store sets it,
/// so either kind of uncached access can reach a device that interrupts.
/// It refuses every access to [`FAULT`], as a platform refuses an unmapped
/// address. It also logs every access with the instant it was made at:
/// `FlatMem`'s fixed access times would hide an access made at the wrong
/// instant, which a real bus would time differently.
#[derive(Clone)]
pub struct IrqMem {
    pub flat: FlatMem,
    pub level: bool,
    /// `(kind, address, instant)` of every access, in order: kinds `r`
    /// and `w` are single beats, `R` and `W` line fills and writebacks.
    pub log: Vec<(char, u32, SimTime)>,
    /// The refused access not yet reported.
    fault: Option<u32>,
}

impl IrqMem {
    pub fn new(flat: FlatMem) -> IrqMem {
        IrqMem {
            flat,
            level: false,
            log: Vec::new(),
            fault: None,
        }
    }
}

impl MemoryPort for IrqMem {
    fn read(&mut self, now: SimTime, addr: u32, size: u8) -> (u32, SimTime) {
        self.log.push(('r', addr, now));
        if addr == DOORBELL {
            self.level = true;
        }
        if addr == FAULT {
            self.fault = Some(addr);
            return (0, self.flat.beat_time);
        }
        self.flat.read(now, addr, size)
    }

    fn write(&mut self, now: SimTime, addr: u32, size: u8, data: u32) -> SimTime {
        self.log.push(('w', addr, now));
        if addr == DOORBELL {
            self.level = data & 1 == 1;
        }
        if addr == FAULT {
            self.fault = Some(addr);
            return self.flat.beat_time;
        }
        self.flat.write(now, addr, size, data)
    }

    fn read_line(&mut self, now: SimTime, addr: u32, buf: &mut [u8; LINE_BYTES]) -> SimTime {
        self.log.push(('R', addr, now));
        self.flat.read_line(now, addr, buf)
    }

    fn write_line(&mut self, now: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime {
        self.log.push(('W', addr, now));
        self.flat.write_line(now, addr, buf)
    }

    fn is_cacheable(&self, addr: u32) -> bool {
        self.flat.is_cacheable(addr)
    }

    fn take_fault(&mut self) -> Option<u32> {
        self.fault.take()
    }
}

/// The interrupt handler. It acknowledges only every second entry: the
/// first leaves the level high, so its `rfi` is followed straight away by
/// a second entry.
fn handler() -> [Instr; 4] {
    [
        Instr::Addi {
            rd: IRQ_COUNT_REG,
            ra: IRQ_COUNT_REG,
            imm: 1,
        },
        Instr::Andi {
            rd: IRQ_SCRATCH_REG,
            ra: IRQ_COUNT_REG,
            imm: 1,
        },
        Instr::Stw {
            rd: IRQ_SCRATCH_REG,
            ra: IO_REG,
            imm: 0,
        },
        Instr::Rfi,
    ]
}

/// A register generated ops may write: `r1..=r15`, or now and then `r0`,
/// whose writes must vanish.
fn dst(rng: &mut SplitMix64) -> Reg {
    if rng.chance(1, 16) {
        0
    } else {
        1 + rng.below(15) as Reg
    }
}

/// A register generated ops may read (`r0..=r15`).
fn src(rng: &mut SplitMix64) -> Reg {
    rng.below(16) as Reg
}

fn imm(rng: &mut SplitMix64) -> i16 {
    rng.next_u32() as i16
}

/// An op of a random ALU row of the instruction table (forms RRR, RRI,
/// RRU and shift), so every ALU row is fuzzed, a new one included.
fn alu(rng: &mut SplitMix64) -> Instr {
    let rows: Vec<&Row> = ROWS
        .iter()
        .filter(|r| matches!(r.form, Form::Rrr | Form::Rri | Form::Rru | Form::Shift))
        .collect();
    let row = rows[rng.below(rows.len() as u64) as usize];
    let (rd, ra) = (dst(rng), src(rng));
    // The word's low half: `rB` for the register form, else an immediate
    // (a shift keeps the low five bits).
    let low = if row.form == Form::Rrr {
        u32::from(src(rng)) << 11
    } else {
        rng.next_u32() & 0xFFFF
    };
    decode((row.opcode << 26) | (u32::from(rd) << 21) | (u32::from(ra) << 16) | low)
        .expect("a row's opcode decodes")
}

/// One load or store into the data window, plus the instruction that
/// prepares the index register for the indexed forms.
fn mem_op(rng: &mut SplitMix64, out: &mut Vec<Instr>) {
    let r = dst(rng);
    let ra = BASE_REG;
    let window = DATA_BYTES as i16;
    let word = (rng.below(DATA_BYTES as u64 / 4) * 4) as i16;
    let half = (rng.below(DATA_BYTES as u64 / 2) * 2) as i16;
    let byte = rng.below(DATA_BYTES as u64) as i16;
    let op = rng.below(12);
    if op >= 9 {
        out.push(Instr::Andi {
            rd: INDEX_REG,
            ra: src(rng),
            imm: (window - 4) as u16,
        });
    }
    out.push(match op {
        0 => Instr::Lwz {
            rd: r,
            ra,
            imm: word,
        },
        1 => Instr::Lhz {
            rd: r,
            ra,
            imm: half,
        },
        2 => Instr::Lbz {
            rd: r,
            ra,
            imm: byte,
        },
        3 => Instr::Stw {
            rd: r,
            ra,
            imm: word,
        },
        4 => Instr::Sth {
            rd: r,
            ra,
            imm: half,
        },
        5 => Instr::Stb {
            rd: r,
            ra,
            imm: byte,
        },
        6 => Instr::Dcbf { ra, imm: word },
        7 => Instr::Sync,
        8 => Instr::Nop,
        9 => Instr::Lwzx {
            rd: r,
            ra,
            rb: INDEX_REG,
        },
        10 => Instr::Stwx {
            rd: r,
            ra,
            rb: INDEX_REG,
        },
        _ => Instr::Lbzx {
            rd: r,
            ra,
            rb: INDEX_REG,
        },
    });
}

/// An interrupt-mask change, a doorbell ring (a store or a load), an
/// uncached access to an I/O word above the doorbell, or an access the
/// memory refuses.
fn io_op(rng: &mut SplitMix64) -> Instr {
    let word = (4 * (1 + rng.below(IO_WORDS))) as i16;
    let refused = (FAULT - UNCACHED) as i16;
    match rng.below(7) {
        0 => Instr::Wrteei { imm: 0 },
        1 => Instr::Wrteei { imm: 1 },
        2 => Instr::Stw {
            rd: ONE_REG,
            ra: IO_REG,
            imm: 0,
        },
        3 => Instr::Lwz {
            rd: dst(rng),
            ra: IO_REG,
            imm: 0,
        },
        4 => Instr::Lwz {
            rd: dst(rng),
            ra: IO_REG,
            imm: word,
        },
        5 if rng.chance(1, 2) => Instr::Lwz {
            rd: dst(rng),
            ra: IO_REG,
            imm: refused,
        },
        5 => Instr::Stw {
            rd: src(rng),
            ra: IO_REG,
            imm: refused,
        },
        _ => Instr::Stw {
            rd: src(rng),
            ra: IO_REG,
            imm: word,
        },
    }
}

/// A straight-line op: ALU, memory, I/O, or a compare plus a forward
/// branch that may skip the next ALU op. One compare in four is padded
/// with `nop`s to the last word of a cache line, so its branch opens the
/// next line.
fn simple(rng: &mut SplitMix64, out: &mut Vec<Instr>) {
    match rng.below(5) {
        0 | 1 => out.push(alu(rng)),
        2 => mem_op(rng, out),
        3 => out.push(io_op(rng)),
        _ => {
            if rng.chance(1, 4) {
                while (out.len() * 4) % LINE_BYTES != LINE_BYTES - 4 {
                    out.push(Instr::Nop);
                }
            }
            let (ra, rb) = (src(rng), src(rng));
            out.push(if rng.chance(1, 2) {
                Instr::Cmpw { ra, rb }
            } else {
                Instr::Cmplw { ra, rb }
            });
            out.push(match rng.below(6) {
                0 => Instr::Beq { off: 2 },
                1 => Instr::Bne { off: 2 },
                2 => Instr::Blt { off: 2 },
                3 => Instr::Bge { off: 2 },
                4 => Instr::Bgt { off: 2 },
                _ => Instr::Ble { off: 2 },
            });
            out.push(alu(rng));
        }
    }
}

/// Loads a 32-bit constant into `rd`.
fn li32(rd: Reg, v: u32) -> [Instr; 2] {
    [
        Instr::Addis {
            rd,
            ra: 0,
            imm: (v >> 16) as i16,
        },
        Instr::Ori {
            rd,
            ra: rd,
            imm: v as u16,
        },
    ]
}

/// The program as words, loaded at address 0.
fn program(rng: &mut SplitMix64) -> Vec<u32> {
    let mut code = Vec::new();
    code.extend(li32(BASE_REG, DATA));
    code.extend(li32(IO_REG, UNCACHED));
    code.push(Instr::Addi {
        rd: ONE_REG,
        ra: 0,
        imm: 1,
    });
    for rd in 1..16 {
        code.push(Instr::Addi {
            rd,
            ra: 0,
            imm: imm(rng),
        });
    }
    let body = code.len();
    for _ in 0..1 + rng.below(24) {
        if rng.chance(1, 4) {
            // Bounded loop: `count` iterations of a straight-line body.
            code.push(Instr::Addi {
                rd: COUNT_REG,
                ra: 0,
                imm: 1 + rng.below(6) as i16,
            });
            let top = code.len();
            for _ in 0..1 + rng.below(6) {
                simple(rng, &mut code);
            }
            code.push(Instr::Addi {
                rd: COUNT_REG,
                ra: COUNT_REG,
                imm: -1,
            });
            code.push(Instr::Cmpwi {
                ra: COUNT_REG,
                imm: 0,
            });
            let off = top as i16 - code.len() as i16;
            code.push(Instr::Bne { off });
        } else {
            simple(rng, &mut code);
        }
    }
    // `halt` must share its line with the illegal word that follows it.
    while (code.len() * 4) % LINE_BYTES == LINE_BYTES - 4 {
        code.push(Instr::Nop);
    }
    code.push(Instr::Halt);
    let mut words: Vec<u32> = code.into_iter().map(encode).collect();
    if rng.chance(1, 8) {
        // Past the prologue, before `halt`: every word there executes
        // unless a compare's branch skips it.
        let at = body + rng.below((words.len() - 1 - body) as u64) as usize;
        words[at] = ILLEGAL;
    }
    words.push(ILLEGAL);
    words
}
