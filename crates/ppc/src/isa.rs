//! Instruction set: one table declares every instruction, and its
//! encoder, decoder, assembler mnemonics, renderer, base cycle costs and
//! micro-op translation are all expanded from that table.
//!
//! Fixed 32-bit encoding: opcode in bits `[31:26]`, `rD` `[25:21]`,
//! `rA` `[20:16]`, `rB` `[15:11]`, 16-bit immediate or shift amount
//! `[15:0]`. Branch displacements are signed word offsets relative to the
//! branch's own address.
//!
//! A table row gives an instruction's [`Instr`] variant, opcode, mnemonic,
//! operand [`Form`], base cycles and micro-op. A form is written once: how
//! its fields sit in the word, how the assembler reads and renders them,
//! and which micro-op operands they become. Adding an instruction takes a
//! row here, an arm in the micro-op executor (`Cpu::exec_run`) if it needs
//! a new micro-op, and an arm in the `#[cfg(test)]` reference `exec`.

use crate::asm::{AsmError, Operands};
use crate::uop::{Op, Uop};

/// A register index (0..32). `r0` reads as zero.
pub type Reg = u8;

/// Extra cycles a taken branch costs (405 pipeline refill without a branch
/// target cache).
pub const TAKEN_BRANCH_PENALTY: u64 = 2;

/// An instruction's operand form: the fields its word carries and how
/// the assembler writes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// `rD, rA, rB`: register-register ALU ops.
    Rrr,
    /// `rD, rA, imm`: ALU ops with a sign-extended 16-bit immediate.
    Rri,
    /// `rD, rA, imm`: ALU ops with a zero-extended 16-bit immediate.
    Rru,
    /// `rD, rA, sh`: shifts by an immediate amount (0..32).
    Shift,
    /// `rD, imm(rA)`: D-form loads and stores.
    MemD,
    /// `rD, rA, rB`: X-form (indexed) loads and stores, laid out as
    /// [`Form::Rrr`].
    MemX,
    /// `rA, rB`: register compares.
    Cmp,
    /// `rA, imm`: compares with a sign-extended immediate.
    CmpI,
    /// `rA, imm`: compares with a zero-extended immediate.
    CmpU,
    /// `off`: branches, to a label or a signed word offset.
    Branch,
    /// `imm(rA)`: data-cache line ops.
    CacheOp,
    /// `bit`: the interrupt-enable bit of `wrteei`.
    Wrteei,
    /// `rD` alone.
    Rd,
    /// `rA` alone.
    Ra,
    /// No operands.
    Bare,
}

/// One row of the instruction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Assembler mnemonic.
    pub mnemonic: &'static str,
    /// Opcode, bits `[31:26]` of the word.
    pub opcode: u32,
    /// Operand form.
    pub form: Form,
    /// Base cycles ([`base_cycles`]).
    pub cycles: u64,
}

/// The register fields of a word.
fn regs(rd: Reg, ra: Reg, rb: Reg) -> u32 {
    debug_assert!(rd < 32 && ra < 32 && rb < 32);
    (u32::from(rd) << 21) | (u32::from(ra) << 16) | (u32::from(rb) << 11)
}

/// The register field at bit `at` of a word.
fn reg(w: u32, at: u32) -> Reg {
    ((w >> at) & 31) as Reg
}

/// Declares the operand forms. Each entry names a form and its fields,
/// then gives the fields' operand text (after the mnemonic), their bits
/// in the word, the fields of a word, the fields from the assembler's
/// operands, and the micro-op operands `(rd slot, ra, rb, imm)` for the
/// row's micro-op.
macro_rules! forms {
    ($($form:ident($($f:ident: $t:ty),*): $text:literal,
        pack: $pack:expr, unpack |$w:ident|: $unpack:expr,
        parse |$o:ident|: $parse:expr, uop |$op:ident|: $uop:expr;)*) => {$(
        pub(super) struct $form;

        impl $form {
            pub(super) fn pack(($($f,)*): ($($t,)*)) -> u32 {
                $pack
            }

            pub(super) fn unpack($w: u32) -> ($($t,)*) {
                $unpack
            }

            pub(super) fn parse($o: &mut Operands) -> Result<($($t,)*), AsmError> {
                Ok($parse)
            }

            pub(super) fn render(($($f,)*): ($($t,)*)) -> String {
                format!($text)
            }

            pub(super) fn uop($op: Op, ($($f,)*): ($($t,)*)) -> Uop {
                let (rd, ra, rb, imm): (u8, Reg, Reg, u32) = $uop;
                Uop { op: $op, rd, ra: ra & 31, rb: rb & 31, imm }
            }
        }
    )*};
}

/// The forms' implementations, named as their [`Form`]s.
mod forms {
    use super::*;

    forms! {
        Rrr(rd: Reg, ra: Reg, rb: Reg): " r{rd}, r{ra}, r{rb}",
            pack: regs(rd, ra, rb),
            unpack |w|: (reg(w, 21), reg(w, 16), reg(w, 11)),
            parse |o|: (o.reg()?, o.reg()?, o.reg()?),
            uop |op|: (op.rd_slot(rd), ra, rb, 0);

        Rri(rd: Reg, ra: Reg, imm: i16): " r{rd}, r{ra}, {imm}",
            pack: regs(rd, ra, 0) | u32::from(imm as u16),
            unpack |w|: (reg(w, 21), reg(w, 16), w as i16),
            parse |o|: (o.reg()?, o.reg()?, o.imm()? as i16),
            uop |op|: (op.rd_slot(rd), ra, 0, imm as i32 as u32);

        Rru(rd: Reg, ra: Reg, imm: u16): " r{rd}, r{ra}, {imm}",
            pack: regs(rd, ra, 0) | u32::from(imm),
            unpack |w|: (reg(w, 21), reg(w, 16), w as u16),
            parse |o|: (o.reg()?, o.reg()?, o.imm()?),
            uop |op|: (op.rd_slot(rd), ra, 0, u32::from(imm));

        Shift(rd: Reg, ra: Reg, sh: u8): " r{rd}, r{ra}, {sh}",
            pack: regs(rd, ra, 0) | u32::from(sh),
            unpack |w|: (reg(w, 21), reg(w, 16), (w & 31) as u8),
            parse |o|: (o.reg()?, o.reg()?, o.sh()?),
            uop |op|: (op.rd_slot(rd), ra, 0, u32::from(sh));

        MemD(rd: Reg, ra: Reg, imm: i16): " r{rd}, {imm}(r{ra})",
            pack: Rri::pack((rd, ra, imm)),
            unpack |w|: Rri::unpack(w),
            parse |o|: { let rd = o.reg()?; let (ra, imm) = o.mem()?; (rd, ra, imm) },
            uop |op|: (op.rd_slot(rd), ra, 0, imm as i32 as u32);

        Cmp(ra: Reg, rb: Reg): " r{ra}, r{rb}",
            pack: regs(0, ra, rb),
            unpack |w|: (reg(w, 16), reg(w, 11)),
            parse |o|: (o.reg()?, o.reg()?),
            uop |op|: (0, ra, rb, 0);

        CmpI(ra: Reg, imm: i16): " r{ra}, {imm}",
            pack: regs(0, ra, 0) | u32::from(imm as u16),
            unpack |w|: (reg(w, 16), w as i16),
            parse |o|: (o.reg()?, o.imm()? as i16),
            uop |op|: (0, ra, 0, imm as i32 as u32);

        CmpU(ra: Reg, imm: u16): " r{ra}, {imm}",
            pack: regs(0, ra, 0) | u32::from(imm),
            unpack |w|: (reg(w, 16), w as u16),
            parse |o|: (o.reg()?, o.imm()?),
            uop |op|: (0, ra, 0, u32::from(imm));

        Branch(off: i16): " {off}",
            pack: u32::from(off as u16),
            unpack |w|: (w as i16,),
            parse |o|: (o.target()?,),
            uop |op|: (0, 0, 0, (i32::from(off) * 4) as u32);

        CacheOp(ra: Reg, imm: i16): " {imm}(r{ra})",
            pack: CmpI::pack((ra, imm)),
            unpack |w|: CmpI::unpack(w),
            parse |o|: o.mem()?,
            uop |op|: (0, ra, 0, imm as i32 as u32);

        Wrteei(imm: u16): " {imm}",
            pack: u32::from(imm),
            unpack |w|: (w as u16 & 1,),
            parse |o|: (o.imm()? & 1,),
            uop |op|: (0, 0, 0, u32::from(imm & 1));

        Rd(rd: Reg): " r{rd}",
            pack: regs(rd, 0, 0),
            unpack |w|: (reg(w, 21),),
            parse |o|: (o.reg()?,),
            uop |op|: (op.rd_slot(rd), 0, 0, 0);

        Ra(ra: Reg): " r{ra}",
            pack: regs(0, ra, 0),
            unpack |w|: (reg(w, 16),),
            parse |o|: (o.reg()?,),
            uop |op|: (0, ra, 0, 0);

        Bare(): "",
            pack: 0,
            unpack |_w|: (),
            parse |_o|: (),
            uop |op|: (0, 0, 0, 0);
    }

    pub(super) type MemX = Rrr;
}

/// Declares the instruction table. Each row gives the [`Instr`] variant
/// with its fields, the opcode, the mnemonic, the operand form, the base
/// cycles and the micro-op (`<< n`: its immediate shifted left by `n`).
macro_rules! isa {
    ($($(#[$doc:meta])* $v:ident $({ $($f:ident: $t:ty),* })? =
        $opcode:literal $mnemonic:literal $form:ident $cycles:literal
        $uop:ident $(<< $shift:literal)?;)*) => {
        /// Decoded instruction.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Instr {
            $($(#[$doc])* $v $({ $($f: $t),* })?,)*
        }

        /// The instruction table, one row per [`Instr`] variant in
        /// declaration order.
        pub const ROWS: &[Row] = &[$(Row {
            mnemonic: $mnemonic,
            opcode: $opcode,
            form: Form::$form,
            cycles: $cycles,
        }),*];

        /// Encodes an instruction.
        pub fn encode(i: Instr) -> u32 {
            match i {
                $(Instr::$v $({ $($f),* })? => {
                    ($opcode << 26) | forms::$form::pack(($($($f,)*)?))
                })*
            }
        }

        /// Decodes a word; `None` for unknown opcodes.
        pub fn decode(w: u32) -> Option<Instr> {
            Some(match w >> 26 {
                $($opcode => {
                    let ($($($f,)*)?) = forms::$form::unpack(w);
                    Instr::$v $({ $($f),* })?
                })*
                _ => return None,
            })
        }

        /// Base cycle cost of an instruction, excluding memory-system time.
        ///
        /// Loads charge 2 cycles: the 405's 1-cycle load-to-use latency
        /// stalls the next instruction in the straight-line code every
        /// kernel here produces, so folding the stall into the load is the
        /// faithful average.
        pub fn base_cycles(i: Instr) -> u64 {
            match i {
                $(Instr::$v { .. } => $cycles,)*
            }
        }

        /// Renders an instruction in assembler syntax. Branch offsets are
        /// rendered numerically (labels are an assembler-level concept).
        pub fn render(i: Instr) -> String {
            match i {
                $(Instr::$v $({ $($f),* })? => {
                    format!("{}{}", $mnemonic, forms::$form::render(($($($f,)*)?)))
                })*
            }
        }

        /// The instruction `mnemonic` names, its fields read from `o`.
        pub(crate) fn parse(mnemonic: &str, o: &mut Operands) -> Result<Instr, AsmError> {
            Ok(match mnemonic {
                $($mnemonic => {
                    let ($($($f,)*)?) = forms::$form::parse(o)?;
                    Instr::$v $({ $($f),* })?
                })*
                _ => return Err(o.error(format!("unknown mnemonic '{mnemonic}'"))),
            })
        }

        impl Uop {
            /// The micro-op an instruction executes as.
            pub(crate) fn from_instr(i: Instr) -> Uop {
                match i {
                    $(Instr::$v $({ $($f),* })? => {
                        let u = forms::$form::uop(Op::$uop, ($($($f,)*)?));
                        $(let u = Uop { imm: u.imm << $shift, ..u };)?
                        u
                    })*
                }
            }
        }
    };
}

isa! {
    // Variant and fields                     opcode mnemonic form   cycles micro-op
    /// Stop execution (test/measurement harness).
    Halt                                      = 0  "halt"   Bare    1 Halt;
    /// `rD = rA + sext(imm)`
    Addi   { rd: Reg, ra: Reg, imm: i16 }     = 1  "addi"   Rri     1 Addi;
    /// `rD = rA + (imm << 16)` (with `ra = r0` this is `lis`)
    Addis  { rd: Reg, ra: Reg, imm: i16 }     = 2  "addis"  Rri     1 Addi << 16;
    /// `rD = rA + rB`
    Add    { rd: Reg, ra: Reg, rb: Reg }      = 3  "add"    Rrr     1 Add;
    /// `rD = rA - rB`
    Sub    { rd: Reg, ra: Reg, rb: Reg }      = 4  "sub"    Rrr     1 Sub;
    /// `rD = (rA * rB) & 0xffff_ffff` (4 cycles)
    Mullw  { rd: Reg, ra: Reg, rb: Reg }      = 5  "mullw"  Rrr     4 Mullw;
    /// `rD = rA & rB`
    And    { rd: Reg, ra: Reg, rb: Reg }      = 6  "and"    Rrr     1 And;
    /// `rD = rA | rB`
    Or     { rd: Reg, ra: Reg, rb: Reg }      = 7  "or"     Rrr     1 Or;
    /// `rD = rA ^ rB`
    Xor    { rd: Reg, ra: Reg, rb: Reg }      = 8  "xor"    Rrr     1 Xor;
    /// `rD = !(rA | rB)`
    Nor    { rd: Reg, ra: Reg, rb: Reg }      = 9  "nor"    Rrr     1 Nor;
    /// `rD = rA & zext(imm)`
    Andi   { rd: Reg, ra: Reg, imm: u16 }     = 10 "andi"   Rru     1 Andi;
    /// `rD = rA | zext(imm)`
    Ori    { rd: Reg, ra: Reg, imm: u16 }     = 11 "ori"    Rru     1 Ori;
    /// `rD = rA ^ zext(imm)`
    Xori   { rd: Reg, ra: Reg, imm: u16 }     = 12 "xori"   Rru     1 Xori;
    /// `rD = rA << (rB & 31)`
    Slw    { rd: Reg, ra: Reg, rb: Reg }      = 13 "slw"    Rrr     1 Slw;
    /// `rD = rA >> (rB & 31)` (logical)
    Srw    { rd: Reg, ra: Reg, rb: Reg }      = 14 "srw"    Rrr     1 Srw;
    /// `rD = rA << sh`
    Slwi   { rd: Reg, ra: Reg, sh: u8 }       = 16 "slwi"   Shift   1 Slwi;
    /// `rD = rA >> sh` (logical)
    Srwi   { rd: Reg, ra: Reg, sh: u8 }       = 17 "srwi"   Shift   1 Srwi;
    /// `rD = ((i32)rA) >> sh` (arithmetic)
    Srawi  { rd: Reg, ra: Reg, sh: u8 }       = 18 "srawi"  Shift   1 Srawi;
    /// `rD = rotl(rA, sh)`
    Rotlwi { rd: Reg, ra: Reg, sh: u8 }       = 19 "rotlwi" Shift   1 Rotlwi;
    /// `rD = mem32[rA + sext(imm)]`
    Lwz    { rd: Reg, ra: Reg, imm: i16 }     = 20 "lwz"    MemD    2 Lw;
    /// `rD = mem8[rA + sext(imm)]` (zero-extended)
    Lbz    { rd: Reg, ra: Reg, imm: i16 }     = 21 "lbz"    MemD    2 Lb;
    /// `rD = mem16[rA + sext(imm)]` (zero-extended)
    Lhz    { rd: Reg, ra: Reg, imm: i16 }     = 22 "lhz"    MemD    2 Lh;
    /// `mem32[rA + sext(imm)] = rD`
    Stw    { rd: Reg, ra: Reg, imm: i16 }     = 23 "stw"    MemD    1 Sw;
    /// `mem8[rA + sext(imm)] = rD & 0xff`
    Stb    { rd: Reg, ra: Reg, imm: i16 }     = 24 "stb"    MemD    1 Sb;
    /// `mem16[rA + sext(imm)] = rD & 0xffff`
    Sth    { rd: Reg, ra: Reg, imm: i16 }     = 25 "sth"    MemD    1 Sh;
    /// `rD = mem32[rA + rB]`
    Lwzx   { rd: Reg, ra: Reg, rb: Reg }      = 46 "lwzx"   MemX    2 Lw;
    /// `mem32[rA + rB] = rD`
    Stwx   { rd: Reg, ra: Reg, rb: Reg }      = 47 "stwx"   MemX    1 Sw;
    /// `rD = mem8[rA + rB]`
    Lbzx   { rd: Reg, ra: Reg, rb: Reg }      = 48 "lbzx"   MemX    2 Lb;
    /// `mem8[rA + rB] = rD & 0xff`
    Stbx   { rd: Reg, ra: Reg, rb: Reg }      = 49 "stbx"   MemX    1 Sb;
    /// `rD = mem16[rA + rB]`
    Lhzx   { rd: Reg, ra: Reg, rb: Reg }      = 15 "lhzx"   MemX    2 Lh;
    /// Signed compare `rA ? rB` → CR0
    Cmpw   { ra: Reg, rb: Reg }               = 26 "cmpw"   Cmp     1 Cmpw;
    /// Unsigned compare `rA ? rB` → CR0
    Cmplw  { ra: Reg, rb: Reg }               = 27 "cmplw"  Cmp     1 Cmplw;
    /// Signed compare `rA ? sext(imm)` → CR0
    Cmpwi  { ra: Reg, imm: i16 }              = 28 "cmpwi"  CmpI    1 Cmpwi;
    /// Unsigned compare `rA ? zext(imm)` → CR0
    Cmplwi { ra: Reg, imm: u16 }              = 29 "cmplwi" CmpU    1 Cmplwi;
    /// Unconditional branch (word offset).
    B      { off: i16 }                       = 30 "b"      Branch  1 B;
    /// Branch and link.
    Bl     { off: i16 }                       = 31 "bl"     Branch  1 Bl;
    /// Return through the link register.
    Blr                                       = 32 "blr"    Bare    1 Blr;
    /// Branch if equal.
    Beq    { off: i16 }                       = 33 "beq"    Branch  1 Beq;
    /// Branch if not equal.
    Bne    { off: i16 }                       = 34 "bne"    Branch  1 Bne;
    /// Branch if less-than.
    Blt    { off: i16 }                       = 35 "blt"    Branch  1 Blt;
    /// Branch if greater-or-equal.
    Bge    { off: i16 }                       = 36 "bge"    Branch  1 Bge;
    /// Branch if greater-than.
    Bgt    { off: i16 }                       = 37 "bgt"    Branch  1 Bgt;
    /// Branch if less-or-equal.
    Ble    { off: i16 }                       = 38 "ble"    Branch  1 Ble;
    /// Flush (write back + invalidate) the D-cache line containing
    /// `rA + sext(imm)`.
    Dcbf   { ra: Reg, imm: i16 }              = 39 "dcbf"   CacheOp 1 Dcbf;
    /// Invalidate (no write-back) the D-cache line containing
    /// `rA + sext(imm)`.
    Dcbi   { ra: Reg, imm: i16 }              = 40 "dcbi"   CacheOp 1 Dcbi;
    /// Write external-interrupt enable (imm 0/1).
    Wrteei { imm: u16 }                       = 41 "wrteei" Wrteei  1 Wrteei;
    /// Return from interrupt.
    Rfi                                       = 42 "rfi"    Bare    1 Rfi;
    /// `rD = LR`
    Mflr   { rd: Reg }                        = 43 "mflr"   Rd      1 Mflr;
    /// `LR = rA`
    Mtlr   { ra: Reg }                        = 44 "mtlr"   Ra      1 Mtlr;
    /// Memory barrier (1 cycle; ordering is already strict in this model).
    Sync                                      = 45 "sync"   Bare    1 Nop;
    /// No operation.
    Nop                                       = 50 "nop"    Bare    1 Nop;
}

/// Disassembles one word, or `None` for an illegal encoding.
pub fn disassemble(word: u32) -> Option<String> {
    decode(word).map(render)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use vp2_sim::SplitMix64;

    fn all_samples() -> Vec<Instr> {
        vec![
            Instr::Halt,
            Instr::Addi {
                rd: 3,
                ra: 4,
                imm: -7,
            },
            Instr::Addis {
                rd: 31,
                ra: 0,
                imm: 0x7FFF,
            },
            Instr::Add {
                rd: 1,
                ra: 2,
                rb: 3,
            },
            Instr::Sub {
                rd: 4,
                ra: 5,
                rb: 6,
            },
            Instr::Mullw {
                rd: 7,
                ra: 8,
                rb: 9,
            },
            Instr::And {
                rd: 10,
                ra: 11,
                rb: 12,
            },
            Instr::Or {
                rd: 13,
                ra: 14,
                rb: 15,
            },
            Instr::Xor {
                rd: 16,
                ra: 17,
                rb: 18,
            },
            Instr::Nor {
                rd: 19,
                ra: 20,
                rb: 21,
            },
            Instr::Andi {
                rd: 1,
                ra: 2,
                imm: 0xFFFF,
            },
            Instr::Ori {
                rd: 3,
                ra: 4,
                imm: 0x00FF,
            },
            Instr::Xori {
                rd: 5,
                ra: 6,
                imm: 0xA5A5,
            },
            Instr::Slw {
                rd: 1,
                ra: 2,
                rb: 3,
            },
            Instr::Srw {
                rd: 4,
                ra: 5,
                rb: 6,
            },
            Instr::Slwi {
                rd: 7,
                ra: 8,
                sh: 31,
            },
            Instr::Srwi {
                rd: 9,
                ra: 10,
                sh: 1,
            },
            Instr::Srawi {
                rd: 11,
                ra: 12,
                sh: 16,
            },
            Instr::Rotlwi {
                rd: 13,
                ra: 14,
                sh: 5,
            },
            Instr::Lwz {
                rd: 3,
                ra: 4,
                imm: 1024,
            },
            Instr::Lbz {
                rd: 5,
                ra: 6,
                imm: -1,
            },
            Instr::Lhz {
                rd: 7,
                ra: 8,
                imm: 2,
            },
            Instr::Stw {
                rd: 9,
                ra: 10,
                imm: -4,
            },
            Instr::Stb {
                rd: 11,
                ra: 12,
                imm: 0,
            },
            Instr::Sth {
                rd: 13,
                ra: 14,
                imm: 6,
            },
            Instr::Lwzx {
                rd: 1,
                ra: 2,
                rb: 3,
            },
            Instr::Stwx {
                rd: 4,
                ra: 5,
                rb: 6,
            },
            Instr::Lbzx {
                rd: 7,
                ra: 8,
                rb: 9,
            },
            Instr::Lhzx {
                rd: 1,
                ra: 2,
                rb: 3,
            },
            Instr::Stbx {
                rd: 10,
                ra: 11,
                rb: 12,
            },
            Instr::Cmpw { ra: 1, rb: 2 },
            Instr::Cmplw { ra: 3, rb: 4 },
            Instr::Cmpwi { ra: 5, imm: -100 },
            Instr::Cmplwi { ra: 6, imm: 100 },
            Instr::B { off: -2 },
            Instr::Bl { off: 10 },
            Instr::Blr,
            Instr::Beq { off: 1 },
            Instr::Bne { off: -1 },
            Instr::Blt { off: 5 },
            Instr::Bge { off: -5 },
            Instr::Bgt { off: 3 },
            Instr::Ble { off: -3 },
            Instr::Dcbf { ra: 3, imm: 32 },
            Instr::Dcbi { ra: 4, imm: -32 },
            Instr::Wrteei { imm: 1 },
            Instr::Rfi,
            Instr::Mflr { rd: 30 },
            Instr::Mtlr { ra: 29 },
            Instr::Sync,
            Instr::Nop,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for i in all_samples() {
            let w = encode(i);
            assert_eq!(decode(w), Some(i), "word {w:#010x}");
        }
    }

    #[test]
    fn encodings_are_pinned() {
        // One literal word per variant, in `all_samples` order. Programs
        // are stored as these words, so an encoding change must show here
        // before it moves a table or a digest.
        const WORDS: [u32; 51] = [
            0x00000000, // Halt
            0x0464fff9, // Addi
            0x0be07fff, // Addis
            0x0c221800, // Add
            0x10853000, // Sub
            0x14e84800, // Mullw
            0x194b6000, // And
            0x1dae7800, // Or
            0x22119000, // Xor
            0x2674a800, // Nor
            0x2822ffff, // Andi
            0x2c6400ff, // Ori
            0x30a6a5a5, // Xori
            0x34221800, // Slw
            0x38853000, // Srw
            0x40e8001f, // Slwi
            0x452a0001, // Srwi
            0x496c0010, // Srawi
            0x4dae0005, // Rotlwi
            0x50640400, // Lwz
            0x54a6ffff, // Lbz
            0x58e80002, // Lhz
            0x5d2afffc, // Stw
            0x616c0000, // Stb
            0x65ae0006, // Sth
            0xb8221800, // Lwzx
            0xbc853000, // Stwx
            0xc0e84800, // Lbzx
            0x3c221800, // Lhzx
            0xc54b6000, // Stbx
            0x68011000, // Cmpw
            0x6c032000, // Cmplw
            0x7005ff9c, // Cmpwi
            0x74060064, // Cmplwi
            0x7800fffe, // B
            0x7c00000a, // Bl
            0x80000000, // Blr
            0x84000001, // Beq
            0x8800ffff, // Bne
            0x8c000005, // Blt
            0x9000fffb, // Bge
            0x94000003, // Bgt
            0x9800fffd, // Ble
            0x9c030020, // Dcbf
            0xa004ffe0, // Dcbi
            0xa4000001, // Wrteei
            0xa8000000, // Rfi
            0xafc00000, // Mflr
            0xb01d0000, // Mtlr
            0xb4000000, // Sync
            0xc8000000, // Nop
        ];
        let samples = all_samples();
        assert_eq!(samples.len(), WORDS.len());
        for (&instr, &word) in samples.iter().zip(&WORDS) {
            assert_eq!(encode(instr), word, "{instr:?}");
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(decode(63 << 26), None);
    }

    #[test]
    fn encodings_are_distinct() {
        let words: Vec<u32> = all_samples().iter().map(|&i| encode(i)).collect();
        let mut dedup = words.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(words.len(), dedup.len());
    }

    #[test]
    fn cycle_costs() {
        assert_eq!(
            base_cycles(Instr::Mullw {
                rd: 0,
                ra: 0,
                rb: 0
            }),
            4
        );
        assert_eq!(
            base_cycles(Instr::Add {
                rd: 0,
                ra: 0,
                rb: 0
            }),
            1
        );
    }

    #[test]
    fn negative_immediates_survive() {
        let i = Instr::Addi {
            rd: 1,
            ra: 2,
            imm: -32768,
        };
        assert_eq!(decode(encode(i)), Some(i));
        let b = Instr::B { off: -32768 };
        assert_eq!(decode(encode(b)), Some(b));
    }

    /// A word of `row` with random fields of its form and every bit the
    /// form leaves unused zero.
    fn draw(row: &Row, rng: &mut SplitMix64) -> u32 {
        let mut reg = |at: u32| (rng.below(32) as u32) << at;
        let fields = match row.form {
            Form::Rrr | Form::MemX => reg(21) | reg(16) | reg(11),
            Form::Rri | Form::Rru | Form::MemD => reg(21) | reg(16) | (rng.next_u32() & 0xFFFF),
            Form::Shift => reg(21) | reg(16) | rng.below(32) as u32,
            Form::Cmp => reg(16) | reg(11),
            Form::CmpI | Form::CmpU | Form::CacheOp => reg(16) | (rng.next_u32() & 0xFFFF),
            Form::Branch => rng.next_u32() & 0xFFFF,
            Form::Wrteei => rng.below(2) as u32,
            Form::Rd => reg(21),
            Form::Ra => reg(16),
            Form::Bare => 0,
        };
        (row.opcode << 26) | fields
    }

    /// Every row, with operands drawn from its form: the word decodes,
    /// re-encodes to itself, costs the row's cycles, and its rendering
    /// reassembles to the same word.
    #[test]
    fn every_row_round_trips_through_encode_and_the_assembler() {
        let mut rng = SplitMix64::new(0x015A_7AB1);
        for row in ROWS {
            for _ in 0..256 {
                let word = draw(row, &mut rng);
                let i = decode(word).unwrap_or_else(|| panic!("{row:?}: {word:#010x}"));
                assert_eq!(encode(i), word, "{i:?}");
                assert_eq!(decode(encode(i)), Some(i));
                assert_eq!(base_cycles(i), row.cycles, "{i:?}");
                let text = render(i);
                assert_eq!(text.split(' ').next(), Some(row.mnemonic));
                let prog = assemble(&text, 0).unwrap_or_else(|e| panic!("'{text}': {e}"));
                assert_eq!(prog.words, [encode(i)], "'{text}'");
            }
        }
    }

    #[test]
    fn rows_are_distinct_and_opcodes_without_a_row_decode_to_none() {
        assert_eq!(ROWS.len(), all_samples().len());
        for (k, row) in ROWS.iter().enumerate() {
            for other in &ROWS[..k] {
                assert_ne!(row.opcode, other.opcode, "{row:?} {other:?}");
                assert_ne!(row.mnemonic, other.mnemonic, "{row:?} {other:?}");
            }
        }
        let mut rng = SplitMix64::new(0x00BC_0DE5);
        for opcode in 0..64 {
            let rowed = ROWS.iter().any(|r| r.opcode == opcode);
            for _ in 0..64 {
                let w = (opcode << 26) | (rng.next_u32() & 0x03FF_FFFF);
                assert_eq!(decode(w).is_some(), rowed, "{w:#010x}");
            }
        }
    }

    #[test]
    fn renders_known_forms() {
        assert_eq!(
            disassemble(encode(Instr::Addi {
                rd: 3,
                ra: 0,
                imm: -7
            }))
            .unwrap(),
            "addi r3, r0, -7"
        );
        assert_eq!(
            disassemble(encode(Instr::Lwz {
                rd: 4,
                ra: 5,
                imm: 8
            }))
            .unwrap(),
            "lwz r4, 8(r5)"
        );
        assert_eq!(disassemble(encode(Instr::Blr)).unwrap(), "blr");
        assert_eq!(disassemble(63 << 26), None, "illegal encoding");
    }

    /// Extreme operands reassemble to the same word (assembler →
    /// disassembler → assembler fixpoint).
    #[test]
    fn roundtrip_through_the_assembler() {
        let samples = [
            Instr::Addi {
                rd: 1,
                ra: 2,
                imm: -32768,
            },
            Instr::Slwi {
                rd: 7,
                ra: 8,
                sh: 31,
            },
            Instr::Stw {
                rd: 9,
                ra: 10,
                imm: -4,
            },
            Instr::Lhzx {
                rd: 1,
                ra: 2,
                rb: 3,
            },
            Instr::Cmplwi { ra: 6, imm: 65535 },
            Instr::Bne { off: -100 },
            Instr::Dcbf { ra: 3, imm: 32 },
            Instr::Wrteei { imm: 1 },
            Instr::Mtlr { ra: 29 },
        ];
        for i in samples {
            let text = render(i);
            let prog = assemble(&format!("  {text}\n"), 0)
                .unwrap_or_else(|e| panic!("'{text}' failed to reassemble: {e}"));
            assert_eq!(prog.words[0], encode(i), "'{text}'");
        }
    }

    /// Random word: either both decode+render+reassemble agree, or the
    /// word is illegal for the disassembler too.
    #[test]
    fn random_words_roundtrip() {
        let mut rng = SplitMix64::new(0xD15A_53B1);
        for _ in 0..4096 {
            let w = rng.next_u32();
            if let Some(text) = disassemble(w) {
                let prog =
                    assemble(&format!("  {text}\n"), 0).unwrap_or_else(|e| panic!("'{text}': {e}"));
                // Re-encoding must produce a word that decodes identically
                // (unused encoding bits may differ).
                assert_eq!(decode(prog.words[0]), decode(w));
            }
        }
    }
}
