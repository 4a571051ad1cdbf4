//! Micro-ops: instructions with their operands resolved for execution.
//!
//! The instruction cache translates each line it fills into a
//! [`MicroLine`]: the line's eight words as micro-ops, an end-of-line
//! sentinel, and the prefix sums of their base cycles, so the interpreter
//! (`Cpu::exec_run`) can charge a whole straight-line run at once. Each
//! row of the ISA table (`crate::isa`) names its instruction's micro-op,
//! and its operand form lays out the operands (`Uop::from_instr` is
//! expanded from the table). A micro-op carries what its instruction
//! needs already worked out:
//!
//! - immediates sign- or zero-extended to 32 bits, `addis`'s pre-shifted
//!   (it becomes an `addi`), shift amounts as they are, branch
//!   displacements in bytes;
//! - a destination of `r0` redirected to the [`SINK`] slot, so a write
//!   never has to re-zero `r0`;
//! - D-form and X-form memory ops merged: the address is always
//!   `rA + rB + imm`, with `rB = r0` (zero) for the D-form and `imm = 0`
//!   for the X-form;
//! - an undecodable word kept as [`Op::Illegal`] with the word itself, so
//!   it panics only if it executes.

use crate::isa::{base_cycles, decode, Reg};
use crate::mem::LINE_BYTES;

/// Instruction words per cache line.
pub(crate) const WORDS_PER_LINE: usize = LINE_BYTES / 4;

/// The register slot writes to `r0` land in. No micro-op reads it, so
/// `r0` stays zero.
pub(crate) const SINK: u8 = 32;

/// The destination slot of a write to `r`.
#[inline]
pub(crate) fn dest(r: Reg) -> u8 {
    if r & 31 == 0 {
        SINK
    } else {
        r & 31
    }
}

/// A micro-op's operation. The comments give its effect in terms of the
/// [`Uop`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    /// `rd = ra + rb`
    Add,
    /// `rd = ra - rb`
    Sub,
    /// `rd = ra * rb`
    Mullw,
    /// `rd = ra & rb`
    And,
    /// `rd = ra | rb`
    Or,
    /// `rd = ra ^ rb`
    Xor,
    /// `rd = !(ra | rb)`
    Nor,
    /// `rd = ra << (rb & 31)`
    Slw,
    /// `rd = ra >> (rb & 31)`
    Srw,
    /// `rd = ra + imm` (`addi` and `addis`)
    Addi,
    /// `rd = ra & imm`
    Andi,
    /// `rd = ra | imm`
    Ori,
    /// `rd = ra ^ imm`
    Xori,
    /// `rd = ra << imm`
    Slwi,
    /// `rd = ra >> imm` (logical)
    Srwi,
    /// `rd = ra >> imm` (arithmetic)
    Srawi,
    /// `rd = rotl(ra, imm)`
    Rotlwi,
    /// `rd = mem32[ra + rb + imm]`
    Lw,
    /// `rd = mem16[ra + rb + imm]`
    Lh,
    /// `rd = mem8[ra + rb + imm]`
    Lb,
    /// `mem32[ra + rb + imm] = rd`
    Sw,
    /// `mem16[ra + rb + imm] = rd`
    Sh,
    /// `mem8[ra + rb + imm] = rd`
    Sb,
    /// Signed compare `ra ? rb`
    Cmpw,
    /// Unsigned compare `ra ? rb`
    Cmplw,
    /// Signed compare `ra ? imm`
    Cmpwi,
    /// Unsigned compare `ra ? imm`
    Cmplwi,
    /// Jump by `imm` bytes.
    B,
    /// Jump by `imm` bytes, linking.
    Bl,
    /// Jump to the link register.
    Blr,
    /// Jump by `imm` bytes if equal.
    Beq,
    /// Jump by `imm` bytes if not equal.
    Bne,
    /// Jump by `imm` bytes if less-than.
    Blt,
    /// Jump by `imm` bytes if greater-or-equal.
    Bge,
    /// Jump by `imm` bytes if greater-than.
    Bgt,
    /// Jump by `imm` bytes if less-or-equal.
    Ble,
    /// Flush the D-cache line holding `ra + imm`.
    Dcbf,
    /// Invalidate the D-cache line holding `ra + imm`.
    Dcbi,
    /// `MSR[EE] = imm`
    Wrteei,
    /// Return from interrupt.
    Rfi,
    /// `rd = LR`
    Mflr,
    /// `LR = ra`
    Mtlr,
    /// Stop.
    Halt,
    /// `nop` and `sync`.
    Nop,
    /// An undecodable word, held in `imm`.
    Illegal,
    /// The end-of-line sentinel: not an instruction.
    End,
}

impl Op {
    /// The slot of an `rd` operand: a store reads its `rd` as it is; any
    /// other op writes it, through [`dest`].
    pub(crate) fn rd_slot(self, rd: Reg) -> u8 {
        if matches!(self, Op::Sw | Op::Sh | Op::Sb) {
            rd
        } else {
            dest(rd)
        }
    }
}

/// One micro-op. `rd` is a destination slot ([`dest`]) for every op that
/// writes a register, and the source register of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Uop {
    pub(crate) op: Op,
    pub(crate) rd: u8,
    pub(crate) ra: u8,
    pub(crate) rb: u8,
    pub(crate) imm: u32,
}

impl Uop {
    /// The end-of-line sentinel.
    pub(crate) const END: Uop = Uop {
        op: Op::End,
        rd: 0,
        ra: 0,
        rb: 0,
        imm: 0,
    };

    /// Translates an instruction word; returns the micro-op and its base
    /// cycles (0 for an undecodable word, which never retires).
    pub(crate) fn translate(word: u32) -> (Uop, u8) {
        match decode(word) {
            Some(instr) => (Uop::from_instr(instr), base_cycles(instr) as u8),
            None => (
                Uop {
                    op: Op::Illegal,
                    imm: word,
                    ..Uop::END
                },
                0,
            ),
        }
    }
}

/// A cache line's words as micro-ops, ended by a sentinel, with the
/// prefix sums of their base cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MicroLine {
    ops: [Uop; WORDS_PER_LINE + 1],
    /// `cycles[k]`: the base cycles of ops `0..k`.
    cycles: [u8; WORDS_PER_LINE + 1],
}

impl MicroLine {
    /// A line of sentinels: what an invalid line holds.
    pub(crate) const EMPTY: MicroLine = MicroLine {
        ops: [Uop::END; WORDS_PER_LINE + 1],
        cycles: [0; WORDS_PER_LINE + 1],
    };

    /// Translates a line's bytes.
    pub(crate) fn build(bytes: &[u8; LINE_BYTES]) -> MicroLine {
        let mut line = MicroLine::EMPTY;
        for (k, word) in bytes.chunks_exact(4).enumerate() {
            let word = u32::from_be_bytes(word.try_into().expect("4-byte chunk"));
            let (op, cycles) = Uop::translate(word);
            line.ops[k] = op;
            line.cycles[k + 1] = line.cycles[k] + cycles;
        }
        line
    }

    /// The op at index `k`; index [`WORDS_PER_LINE`] is the sentinel.
    #[inline(always)]
    pub(crate) fn op(&self, k: usize) -> Uop {
        self.ops[k]
    }

    /// The base cycles of ops `0..k`.
    #[inline(always)]
    pub(crate) fn cycles_before(&self, k: usize) -> u64 {
        u64::from(self.cycles[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, Instr};

    #[test]
    fn operands_are_resolved_at_translation() {
        let t = |i: Instr| Uop::translate(encode(i)).0;
        let addis = t(Instr::Addis {
            rd: 3,
            ra: 4,
            imm: -2,
        });
        assert_eq!((addis.op, addis.imm), (Op::Addi, 0xFFFE_0000));
        let ori = t(Instr::Ori {
            rd: 3,
            ra: 3,
            imm: 0x8000,
        });
        assert_eq!(ori.imm, 0x8000, "zero-extended");
        assert_eq!(t(Instr::Bne { off: -3 }).imm, -12i32 as u32, "bytes");
        let to_r0 = t(Instr::Add {
            rd: 0,
            ra: 1,
            rb: 2,
        });
        assert_eq!(to_r0.rd, SINK);
        let store_r0 = t(Instr::Stw {
            rd: 0,
            ra: 1,
            imm: 4,
        });
        assert_eq!(store_r0.rd, 0, "a store reads its rd: no redirect");
        let indexed = t(Instr::Lbzx {
            rd: 5,
            ra: 6,
            rb: 7,
        });
        assert_eq!((indexed.op, indexed.rb, indexed.imm), (Op::Lb, 7, 0));
        assert_eq!(
            Uop::translate(0xFC00_0000),
            (
                Uop {
                    op: Op::Illegal,
                    imm: 0xFC00_0000,
                    ..Uop::END
                },
                0
            )
        );
    }

    #[test]
    fn a_line_ends_in_a_sentinel_with_cycle_prefix_sums() {
        let words = [
            Instr::Mullw {
                rd: 1,
                ra: 2,
                rb: 3,
            },
            Instr::Lwz {
                rd: 1,
                ra: 2,
                imm: 0,
            },
            Instr::Nop,
            Instr::Halt,
        ];
        let mut bytes = [0u8; LINE_BYTES];
        for (k, &w) in words.iter().cycle().take(WORDS_PER_LINE).enumerate() {
            bytes[4 * k..4 * k + 4].copy_from_slice(&encode(w).to_be_bytes());
        }
        let line = MicroLine::build(&bytes);
        let sums: Vec<u64> = (0..=WORDS_PER_LINE)
            .map(|k| line.cycles_before(k))
            .collect();
        assert_eq!(sums, [0, 4, 6, 7, 8, 12, 14, 15, 16]);
        assert_eq!(line.op(WORDS_PER_LINE), Uop::END);
        assert_eq!(line.op(3).op, Op::Halt);
    }
}
