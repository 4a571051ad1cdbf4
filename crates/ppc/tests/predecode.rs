//! Property test: the predecoded instruction-cache fetch path executes
//! exactly like decode-per-fetch.
//!
//! Each case generates a random program (ALU ops, loads and stores into a
//! data window, forward skips, bounded loops, an undecodable word parked
//! after `halt` in the same cache line) and runs it twice: with caches on,
//! where every fetch comes predecoded from the I-cache, and with caches off,
//! where every fetch reads memory and runs `decode`. Both runs must end
//! with equal registers, equal memory and equal retired / taken-branch /
//! memory-op counts. Cases are drawn from `SplitMix64`, so a failure
//! reproduces exactly and the test needs no external crates.

use ppc405_sim::isa::Reg;
use ppc405_sim::mem::LINE_BYTES;
use ppc405_sim::{decode, encode, Cpu, CpuConfig, FlatMem, Instr};
use vp2_sim::{ClockDomain, SimTime, SplitMix64};

const CASES: u64 = 200;
const MEM_BYTES: usize = 0x8000;
/// The data window loads and stores land in.
const DATA: u32 = 0x4000;
const DATA_BYTES: u32 = 0x400;
/// Holds `DATA`; never written by generated ops.
const BASE_REG: Reg = 20;
/// Loop counter; never written by generated ops.
const COUNT_REG: Reg = 21;
/// Word-aligned window offset for indexed accesses.
const INDEX_REG: Reg = 22;
/// A word no opcode decodes to.
const ILLEGAL: u32 = 0xFC00_0000;

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

/// A straight-line op: ALU, memory, or a compare plus a forward branch
/// that may skip the next ALU op.
fn simple(rng: &mut SplitMix64, out: &mut Vec<Instr>) {
    match rng.below(4) {
        0 | 1 => out.push(alu(rng)),
        2 => mem_op(rng, out),
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

/// The program as words, loaded at address 0.
fn program(rng: &mut SplitMix64) -> Vec<u32> {
    let mut code = vec![
        Instr::Addis {
            rd: BASE_REG,
            ra: 0,
            imm: (DATA >> 16) as i16,
        },
        Instr::Ori {
            rd: BASE_REG,
            ra: BASE_REG,
            imm: DATA as u16,
        },
    ];
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

struct Outcome {
    regs: Vec<u32>,
    mem: Vec<u8>,
    retired: u64,
    taken_branches: u64,
    mem_ops: u64,
}

fn run(words: &[u32], cfg: CpuConfig) -> Outcome {
    let mut mem = FlatMem::new(MEM_BYTES);
    for (i, &w) in words.iter().enumerate() {
        mem.store_u32(4 * i as u32, w);
    }
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
    }
}

#[test]
fn predecoded_fetch_matches_decode_per_fetch() {
    assert_eq!(decode(ILLEGAL), None, "the parked word must not decode");
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0405 + case);
        let words = program(&mut rng);
        let mut cached = CpuConfig::ppc405(ClockDomain::from_mhz("cpu", 300));
        // Small caches force line evictions and refills of the decoded
        // copies; the full 16 KB ones keep every line resident.
        let bytes = [128, 256, 1024, 16 * 1024][rng.below(4) as usize];
        cached.icache_bytes = bytes;
        cached.dcache_bytes = bytes;
        let uncached = CpuConfig {
            caches_enabled: false,
            ..cached.clone()
        };
        let (a, b) = (run(&words, cached), run(&words, uncached));
        assert_eq!(a.regs, b.regs, "case {case}: registers");
        assert!(a.mem == b.mem, "case {case}: memory");
        assert_eq!(a.retired, b.retired, "case {case}: retired");
        assert_eq!(a.taken_branches, b.taken_branches, "case {case}: branches");
        assert_eq!(a.mem_ops, b.mem_ops, "case {case}: memory ops");
    }
}
