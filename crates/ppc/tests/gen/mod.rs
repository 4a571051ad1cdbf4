//! Random-program generator shared by the interpreter property tests.
//!
//! A [`Case`] is a program at address 0 (ALU ops, loads and stores into a
//! cached data window, uncached accesses to an I/O window, a doorbell that
//! raises the interrupt level, `wrteei 0/1`, forward skips, bounded loops,
//! and an undecodable word parked after `halt` in the same cache line) plus
//! an interrupt handler at [`Case::vector`]. Cases are drawn from
//! `SplitMix64`, so a failure reproduces exactly and the tests need no
//! external crates.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use ppc405_sim::isa::Reg;
use ppc405_sim::mem::LINE_BYTES;
use ppc405_sim::{encode, FlatMem, Instr};
use vp2_sim::SplitMix64;

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
/// A word no opcode decodes to.
pub const ILLEGAL: u32 = 0xFC00_0000;

/// A generated program and where its interrupt handler lives.
pub struct Case {
    /// Program words, loaded at address 0.
    code: Vec<u32>,
    /// The interrupt vector: cached, or in the uncached window, where no
    /// block can run it.
    pub vector: u32,
}

impl Case {
    pub fn draw(rng: &mut SplitMix64) -> Case {
        let code = program(rng);
        let vector = if rng.chance(3, 4) { 0x3000 } else { 0x7000 };
        Case { code, vector }
    }

    /// The case's memory: program, handler and the uncached window.
    pub fn memory(&self) -> FlatMem {
        let mut mem = FlatMem::new(MEM_BYTES);
        mem.uncached_base = UNCACHED;
        for (i, &w) in self.code.iter().enumerate() {
            mem.store_u32(4 * i as u32, w);
        }
        for (i, ins) in handler().into_iter().enumerate() {
            mem.store_u32(self.vector + 4 * i as u32, encode(ins));
        }
        mem
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

/// A register generated ops may write (`r1..=r15`).
fn dst(rng: &mut SplitMix64) -> Reg {
    1 + rng.below(15) as Reg
}

/// A register generated ops may read (`r0..=r15`).
fn src(rng: &mut SplitMix64) -> Reg {
    rng.below(16) as Reg
}

fn imm(rng: &mut SplitMix64) -> i16 {
    rng.next_u32() as i16
}

fn alu(rng: &mut SplitMix64) -> Instr {
    let (rd, ra, rb) = (dst(rng), src(rng), src(rng));
    let sh = rng.below(32) as u8;
    let (imm, immu) = (imm(rng), rng.next_u32() as u16);
    match rng.below(18) {
        0 => Instr::Addi { rd, ra, imm },
        1 => Instr::Addis { rd, ra, imm },
        2 => Instr::Add { rd, ra, rb },
        3 => Instr::Sub { rd, ra, rb },
        4 => Instr::Mullw { rd, ra, rb },
        5 => Instr::And { rd, ra, rb },
        6 => Instr::Or { rd, ra, rb },
        7 => Instr::Xor { rd, ra, rb },
        8 => Instr::Nor { rd, ra, rb },
        9 => Instr::Andi { rd, ra, imm: immu },
        10 => Instr::Ori { rd, ra, imm: immu },
        11 => Instr::Xori { rd, ra, imm: immu },
        12 => Instr::Slw { rd, ra, rb },
        13 => Instr::Srw { rd, ra, rb },
        14 => Instr::Slwi { rd, ra, sh },
        15 => Instr::Srwi { rd, ra, sh },
        16 => Instr::Srawi { rd, ra, sh },
        _ => Instr::Rotlwi { rd, ra, sh },
    }
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

/// An interrupt-mask change, a doorbell ring (a store or a load), or an
/// uncached access to an I/O word above the doorbell.
fn io_op(rng: &mut SplitMix64) -> Instr {
    let word = (4 * (1 + rng.below(IO_WORDS))) as i16;
    match rng.below(6) {
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
        _ => Instr::Stw {
            rd: src(rng),
            ra: IO_REG,
            imm: word,
        },
    }
}

/// A straight-line op: ALU, memory, I/O, or a compare plus a forward
/// branch that may skip the next ALU op.
fn simple(rng: &mut SplitMix64, out: &mut Vec<Instr>) {
    match rng.below(5) {
        0 | 1 => out.push(alu(rng)),
        2 => mem_op(rng, out),
        3 => out.push(io_op(rng)),
        _ => {
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
    words.push(ILLEGAL);
    words
}
