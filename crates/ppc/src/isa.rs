//! Instruction set: definition, encoding, decoding.
//!
//! Fixed 32-bit encoding: opcode in bits `[31:26]`, `rD` `[25:21]`,
//! `rA` `[20:16]`, `rB`/shift-amount `[15:11]`, 16-bit immediate `[15:0]`. Branch
//! displacements are signed word offsets relative to the branch's own
//! address.

/// A register index (0..32). `r0` reads as zero.
pub type Reg = u8;

/// Decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Stop execution (test/measurement harness).
    Halt,
    /// `rD = rA + sext(imm)`
    Addi { rd: Reg, ra: Reg, imm: i16 },
    /// `rD = rA + (imm << 16)` (with `ra = r0` this is `lis`)
    Addis { rd: Reg, ra: Reg, imm: i16 },
    /// `rD = rA + rB`
    Add { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA - rB`
    Sub { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = (rA * rB) & 0xffff_ffff` (4 cycles)
    Mullw { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA & rB`
    And { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA | rB`
    Or { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA ^ rB`
    Xor { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = !(rA | rB)`
    Nor { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA & zext(imm)`
    Andi { rd: Reg, ra: Reg, imm: u16 },
    /// `rD = rA | zext(imm)`
    Ori { rd: Reg, ra: Reg, imm: u16 },
    /// `rD = rA ^ zext(imm)`
    Xori { rd: Reg, ra: Reg, imm: u16 },
    /// `rD = rA << (rB & 31)`
    Slw { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA >> (rB & 31)` (logical)
    Srw { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = rA << sh`
    Slwi { rd: Reg, ra: Reg, sh: u8 },
    /// `rD = rA >> sh` (logical)
    Srwi { rd: Reg, ra: Reg, sh: u8 },
    /// `rD = ((i32)rA) >> sh` (arithmetic)
    Srawi { rd: Reg, ra: Reg, sh: u8 },
    /// `rD = rotl(rA, sh)`
    Rotlwi { rd: Reg, ra: Reg, sh: u8 },
    /// `rD = mem32[rA + sext(imm)]`
    Lwz { rd: Reg, ra: Reg, imm: i16 },
    /// `rD = mem8[rA + sext(imm)]` (zero-extended)
    Lbz { rd: Reg, ra: Reg, imm: i16 },
    /// `rD = mem16[rA + sext(imm)]` (zero-extended)
    Lhz { rd: Reg, ra: Reg, imm: i16 },
    /// `mem32[rA + sext(imm)] = rD`
    Stw { rd: Reg, ra: Reg, imm: i16 },
    /// `mem8[rA + sext(imm)] = rD & 0xff`
    Stb { rd: Reg, ra: Reg, imm: i16 },
    /// `mem16[rA + sext(imm)] = rD & 0xffff`
    Sth { rd: Reg, ra: Reg, imm: i16 },
    /// `rD = mem32[rA + rB]`
    Lwzx { rd: Reg, ra: Reg, rb: Reg },
    /// `mem32[rA + rB] = rD`
    Stwx { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = mem8[rA + rB]`
    Lbzx { rd: Reg, ra: Reg, rb: Reg },
    /// `mem8[rA + rB] = rD & 0xff`
    Stbx { rd: Reg, ra: Reg, rb: Reg },
    /// `rD = mem16[rA + rB]`
    Lhzx { rd: Reg, ra: Reg, rb: Reg },
    /// Signed compare `rA ? rB` → CR0
    Cmpw { ra: Reg, rb: Reg },
    /// Unsigned compare `rA ? rB` → CR0
    Cmplw { ra: Reg, rb: Reg },
    /// Signed compare `rA ? sext(imm)` → CR0
    Cmpwi { ra: Reg, imm: i16 },
    /// Unsigned compare `rA ? zext(imm)` → CR0
    Cmplwi { ra: Reg, imm: u16 },
    /// Unconditional branch (word offset).
    B { off: i16 },
    /// Branch and link.
    Bl { off: i16 },
    /// Return through the link register.
    Blr,
    /// Branch if equal.
    Beq { off: i16 },
    /// Branch if not equal.
    Bne { off: i16 },
    /// Branch if less-than.
    Blt { off: i16 },
    /// Branch if greater-or-equal.
    Bge { off: i16 },
    /// Branch if greater-than.
    Bgt { off: i16 },
    /// Branch if less-or-equal.
    Ble { off: i16 },
    /// Flush (write back + invalidate) the D-cache line containing
    /// `rA + sext(imm)`.
    Dcbf { ra: Reg, imm: i16 },
    /// Invalidate (no write-back) the D-cache line containing
    /// `rA + sext(imm)`.
    Dcbi { ra: Reg, imm: i16 },
    /// Write external-interrupt enable (imm 0/1).
    Wrteei { imm: u16 },
    /// Return from interrupt.
    Rfi,
    /// `rD = LR`
    Mflr { rd: Reg },
    /// `LR = rA`
    Mtlr { ra: Reg },
    /// Memory barrier (1 cycle; ordering is already strict in this model).
    Sync,
    /// No operation.
    Nop,
}

macro_rules! ops {
    ($($num:literal => $name:ident),* $(,)?) => {
        mod opnum { $(pub const $name: u32 = $num;)* }
    };
}

ops! {
    0 => HALT, 1 => ADDI, 2 => ADDIS, 3 => ADD, 4 => SUB, 5 => MULLW,
    6 => AND, 7 => OR, 8 => XOR, 9 => NOR, 10 => ANDI, 11 => ORI,
    12 => XORI, 13 => SLW, 14 => SRW, 15 => LHZX, 16 => SLWI, 17 => SRWI, 18 => SRAWI,
    19 => ROTLWI, 20 => LWZ, 21 => LBZ, 22 => LHZ, 23 => STW, 24 => STB,
    25 => STH, 26 => CMPW, 27 => CMPLW, 28 => CMPWI, 29 => CMPLWI,
    30 => B, 31 => BL, 32 => BLR, 33 => BEQ, 34 => BNE, 35 => BLT,
    36 => BGE, 37 => BGT, 38 => BLE, 39 => DCBF, 40 => DCBI, 41 => WRTEEI,
    42 => RFI, 43 => MFLR, 44 => MTLR, 45 => SYNC, 46 => LWZX, 47 => STWX,
    48 => LBZX, 49 => STBX, 50 => NOP,
}

#[inline]
fn pack(op: u32, rd: u8, ra: u8, rb: u8, imm: u16) -> u32 {
    debug_assert!(rd < 32 && ra < 32 && rb < 32);
    (op << 26)
        | (u32::from(rd) << 21)
        | (u32::from(ra) << 16)
        | ((u32::from(rb) & 0x1F) << 11)
        | (u32::from(imm) & 0xFFFF)
}

// rb and imm overlap in the encoding: register-register forms put rb in
// [15:11] and leave [10:0] zero; immediate forms use the full [15:0].
// Shift-immediate forms carry the shift amount in the imm field.

/// Encodes an instruction.
pub fn encode(i: Instr) -> u32 {
    use opnum::*;
    match i {
        Instr::Halt => pack(HALT, 0, 0, 0, 0),
        Instr::Addi { rd, ra, imm } => pack(ADDI, rd, ra, 0, imm as u16),
        Instr::Addis { rd, ra, imm } => pack(ADDIS, rd, ra, 0, imm as u16),
        Instr::Add { rd, ra, rb } => pack(ADD, rd, ra, rb, u16::from(rb) << 11),
        Instr::Sub { rd, ra, rb } => pack(SUB, rd, ra, rb, u16::from(rb) << 11),
        Instr::Mullw { rd, ra, rb } => pack(MULLW, rd, ra, rb, u16::from(rb) << 11),
        Instr::And { rd, ra, rb } => pack(AND, rd, ra, rb, u16::from(rb) << 11),
        Instr::Or { rd, ra, rb } => pack(OR, rd, ra, rb, u16::from(rb) << 11),
        Instr::Xor { rd, ra, rb } => pack(XOR, rd, ra, rb, u16::from(rb) << 11),
        Instr::Nor { rd, ra, rb } => pack(NOR, rd, ra, rb, u16::from(rb) << 11),
        Instr::Andi { rd, ra, imm } => pack(ANDI, rd, ra, 0, imm),
        Instr::Ori { rd, ra, imm } => pack(ORI, rd, ra, 0, imm),
        Instr::Xori { rd, ra, imm } => pack(XORI, rd, ra, 0, imm),
        Instr::Slw { rd, ra, rb } => pack(SLW, rd, ra, rb, u16::from(rb) << 11),
        Instr::Srw { rd, ra, rb } => pack(SRW, rd, ra, rb, u16::from(rb) << 11),
        Instr::Slwi { rd, ra, sh } => pack(SLWI, rd, ra, 0, u16::from(sh)),
        Instr::Srwi { rd, ra, sh } => pack(SRWI, rd, ra, 0, u16::from(sh)),
        Instr::Srawi { rd, ra, sh } => pack(SRAWI, rd, ra, 0, u16::from(sh)),
        Instr::Rotlwi { rd, ra, sh } => pack(ROTLWI, rd, ra, 0, u16::from(sh)),
        Instr::Lwz { rd, ra, imm } => pack(LWZ, rd, ra, 0, imm as u16),
        Instr::Lbz { rd, ra, imm } => pack(LBZ, rd, ra, 0, imm as u16),
        Instr::Lhz { rd, ra, imm } => pack(LHZ, rd, ra, 0, imm as u16),
        Instr::Stw { rd, ra, imm } => pack(STW, rd, ra, 0, imm as u16),
        Instr::Stb { rd, ra, imm } => pack(STB, rd, ra, 0, imm as u16),
        Instr::Sth { rd, ra, imm } => pack(STH, rd, ra, 0, imm as u16),
        Instr::Lwzx { rd, ra, rb } => pack(LWZX, rd, ra, rb, u16::from(rb) << 11),
        Instr::Stwx { rd, ra, rb } => pack(STWX, rd, ra, rb, u16::from(rb) << 11),
        Instr::Lbzx { rd, ra, rb } => pack(LBZX, rd, ra, rb, u16::from(rb) << 11),
        Instr::Stbx { rd, ra, rb } => pack(STBX, rd, ra, rb, u16::from(rb) << 11),
        Instr::Lhzx { rd, ra, rb } => pack(LHZX, rd, ra, rb, u16::from(rb) << 11),
        Instr::Cmpw { ra, rb } => pack(CMPW, 0, ra, rb, u16::from(rb) << 11),
        Instr::Cmplw { ra, rb } => pack(CMPLW, 0, ra, rb, u16::from(rb) << 11),
        Instr::Cmpwi { ra, imm } => pack(CMPWI, 0, ra, 0, imm as u16),
        Instr::Cmplwi { ra, imm } => pack(CMPLWI, 0, ra, 0, imm),
        Instr::B { off } => pack(B, 0, 0, 0, off as u16),
        Instr::Bl { off } => pack(BL, 0, 0, 0, off as u16),
        Instr::Blr => pack(BLR, 0, 0, 0, 0),
        Instr::Beq { off } => pack(BEQ, 0, 0, 0, off as u16),
        Instr::Bne { off } => pack(BNE, 0, 0, 0, off as u16),
        Instr::Blt { off } => pack(BLT, 0, 0, 0, off as u16),
        Instr::Bge { off } => pack(BGE, 0, 0, 0, off as u16),
        Instr::Bgt { off } => pack(BGT, 0, 0, 0, off as u16),
        Instr::Ble { off } => pack(BLE, 0, 0, 0, off as u16),
        Instr::Dcbf { ra, imm } => pack(DCBF, 0, ra, 0, imm as u16),
        Instr::Dcbi { ra, imm } => pack(DCBI, 0, ra, 0, imm as u16),
        Instr::Wrteei { imm } => pack(WRTEEI, 0, 0, 0, imm),
        Instr::Rfi => pack(RFI, 0, 0, 0, 0),
        Instr::Mflr { rd } => pack(MFLR, rd, 0, 0, 0),
        Instr::Mtlr { ra } => pack(MTLR, 0, ra, 0, 0),
        Instr::Sync => pack(SYNC, 0, 0, 0, 0),
        Instr::Nop => pack(NOP, 0, 0, 0, 0),
    }
}

/// Decodes a word; `None` for unknown opcodes.
pub fn decode(w: u32) -> Option<Instr> {
    use opnum::*;
    let op = w >> 26;
    let rd = ((w >> 21) & 0x1F) as u8;
    let ra = ((w >> 16) & 0x1F) as u8;
    let rb = ((w >> 11) & 0x1F) as u8;
    let immu = (w & 0xFFFF) as u16;
    let imms = immu as i16;
    let sh = (immu & 0x1F) as u8;
    Some(match op {
        HALT => Instr::Halt,
        ADDI => Instr::Addi { rd, ra, imm: imms },
        ADDIS => Instr::Addis { rd, ra, imm: imms },
        ADD => Instr::Add { rd, ra, rb },
        SUB => Instr::Sub { rd, ra, rb },
        MULLW => Instr::Mullw { rd, ra, rb },
        AND => Instr::And { rd, ra, rb },
        OR => Instr::Or { rd, ra, rb },
        XOR => Instr::Xor { rd, ra, rb },
        NOR => Instr::Nor { rd, ra, rb },
        ANDI => Instr::Andi { rd, ra, imm: immu },
        ORI => Instr::Ori { rd, ra, imm: immu },
        XORI => Instr::Xori { rd, ra, imm: immu },
        SLW => Instr::Slw { rd, ra, rb },
        SRW => Instr::Srw { rd, ra, rb },
        SLWI => Instr::Slwi { rd, ra, sh },
        SRWI => Instr::Srwi { rd, ra, sh },
        SRAWI => Instr::Srawi { rd, ra, sh },
        ROTLWI => Instr::Rotlwi { rd, ra, sh },
        LWZ => Instr::Lwz { rd, ra, imm: imms },
        LBZ => Instr::Lbz { rd, ra, imm: imms },
        LHZ => Instr::Lhz { rd, ra, imm: imms },
        STW => Instr::Stw { rd, ra, imm: imms },
        STB => Instr::Stb { rd, ra, imm: imms },
        STH => Instr::Sth { rd, ra, imm: imms },
        LWZX => Instr::Lwzx { rd, ra, rb },
        STWX => Instr::Stwx { rd, ra, rb },
        LBZX => Instr::Lbzx { rd, ra, rb },
        STBX => Instr::Stbx { rd, ra, rb },
        LHZX => Instr::Lhzx { rd, ra, rb },
        CMPW => Instr::Cmpw { ra, rb },
        CMPLW => Instr::Cmplw { ra, rb },
        CMPWI => Instr::Cmpwi { ra, imm: imms },
        CMPLWI => Instr::Cmplwi { ra, imm: immu },
        B => Instr::B { off: imms },
        BL => Instr::Bl { off: imms },
        BLR => Instr::Blr,
        BEQ => Instr::Beq { off: imms },
        BNE => Instr::Bne { off: imms },
        BLT => Instr::Blt { off: imms },
        BGE => Instr::Bge { off: imms },
        BGT => Instr::Bgt { off: imms },
        BLE => Instr::Ble { off: imms },
        DCBF => Instr::Dcbf { ra, imm: imms },
        DCBI => Instr::Dcbi { ra, imm: imms },
        WRTEEI => Instr::Wrteei { imm: immu & 1 },
        RFI => Instr::Rfi,
        MFLR => Instr::Mflr { rd },
        MTLR => Instr::Mtlr { ra },
        SYNC => Instr::Sync,
        NOP => Instr::Nop,
        _ => return None,
    })
}

/// Base cycle cost of an instruction, excluding memory-system time.
///
/// Loads charge 2 cycles: the 405's 1-cycle load-to-use latency stalls the
/// next instruction in the straight-line code every kernel here produces,
/// so folding the stall into the load is the faithful average.
pub fn base_cycles(i: Instr) -> u64 {
    match i {
        Instr::Mullw { .. } => 4,
        Instr::Lwz { .. }
        | Instr::Lbz { .. }
        | Instr::Lhz { .. }
        | Instr::Lwzx { .. }
        | Instr::Lbzx { .. }
        | Instr::Lhzx { .. } => 2,
        _ => 1,
    }
}

/// Extra cycles a taken branch costs (405 pipeline refill without a branch
/// target cache).
pub const TAKEN_BRANCH_PENALTY: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;

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
}
