//! Two-pass text assembler.
//!
//! The mnemonics and their operand syntax come from the ISA table
//! ([`crate::isa`]); only the pseudo-ops `li`, `lis` and `mr` and the
//! `subf` alias of `sub` are written here.
//!
//! All software baselines in the reproduction (the paper's "software-only
//! implementations running on the embedded CPU") are written in this
//! assembly dialect. Syntax:
//!
//! ```text
//! # comment            ; also a comment
//! label:
//!     addi  r3, r0, 42
//!     lwz   r4, 8(r3)       # displacement addressing
//!     lwzx  r5, r3, r4      # indexed addressing
//!     cmpwi r4, 0
//!     bne   label           # branch to label
//!     li    r6, 7           # pseudo: addi r6, r0, 7
//!     lis   r7, 0x1234      # pseudo: addis r7, r0, 0x1234
//!     mr    r8, r7          # pseudo: or r8, r7, r7
//!     .word 0xDEADBEEF      # literal data
//!     halt
//! ```

use crate::isa::{encode, parse, Instr, Reg};
use std::collections::HashMap;

/// An assembled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Load address of the first word.
    pub base: u32,
    /// Instruction/data words.
    pub words: Vec<u32>,
    /// Label → absolute address.
    pub labels: HashMap<String, u32>,
}

impl Program {
    /// Program size in bytes.
    pub fn byte_len(&self) -> usize {
        self.words.len() * 4
    }

    /// Address of a label.
    ///
    /// # Panics
    /// Panics if the label is unknown (test ergonomics).
    pub fn label(&self, name: &str) -> u32 {
        *self
            .labels
            .get(name)
            .unwrap_or_else(|| panic!("unknown label '{name}'"))
    }
}

/// Assembly errors with line numbers (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// Source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// One statement after lexing.
#[derive(Debug)]
enum Stmt {
    Instr {
        mnemonic: String,
        operands: Vec<String>,
        line: usize,
    },
    Word(u32),
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, AsmError> {
    let s = s.trim();
    let num = s
        .strip_prefix('r')
        .ok_or_else(|| err(line, format!("expected register, got '{s}'")))?;
    let n: u8 = num
        .parse()
        .map_err(|_| err(line, format!("bad register '{s}'")))?;
    if n > 31 {
        return Err(err(line, format!("register out of range '{s}'")));
    }
    Ok(n)
}

fn parse_imm(s: &str, line: usize) -> Result<i64, AsmError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad immediate '{s}'")))?;
    Ok(if neg { -v } else { v })
}

/// The bits of a 16-bit immediate, written signed (-32768..=32767) or
/// unsigned (0..=65535).
fn imm16(v: i64, line: usize) -> Result<u16, AsmError> {
    if (-32768..=65535).contains(&v) {
        Ok(v as u16)
    } else {
        Err(err(line, format!("immediate {v} does not fit 16 bits")))
    }
}

/// A statement's operands, which an operand form reads left to right.
pub(crate) struct Operands<'a> {
    mnemonic: &'a str,
    list: &'a [String],
    read: usize,
    pc: u32,
    labels: &'a HashMap<String, u32>,
    line: usize,
}

impl<'a> Operands<'a> {
    /// An error on the statement's line.
    pub(crate) fn error(&self, message: impl Into<String>) -> AsmError {
        err(self.line, message)
    }

    fn next(&mut self) -> Result<&'a str, AsmError> {
        let Some(op) = self.list.get(self.read) else {
            let n = self.read + 1;
            return Err(self.error(format!("'{}' is missing operand {n}", self.mnemonic)));
        };
        self.read += 1;
        Ok(op)
    }

    /// A register, `rN`.
    pub(crate) fn reg(&mut self) -> Result<Reg, AsmError> {
        parse_reg(self.next()?, self.line)
    }

    /// A 16-bit immediate's bits.
    pub(crate) fn imm(&mut self) -> Result<u16, AsmError> {
        imm16(parse_imm(self.next()?, self.line)?, self.line)
    }

    /// A shift amount (0..32).
    pub(crate) fn sh(&mut self) -> Result<u8, AsmError> {
        match parse_imm(self.next()?, self.line)? {
            v @ 0..=31 => Ok(v as u8),
            v => Err(self.error(format!("shift amount {v} out of range"))),
        }
    }

    /// A base register and displacement, written `disp(rA)`.
    pub(crate) fn mem(&mut self) -> Result<(Reg, i16), AsmError> {
        let s = self.next()?;
        let open = s
            .find('(')
            .ok_or_else(|| self.error(format!("expected disp(rA), got '{s}'")))?;
        let close = s
            .rfind(')')
            .ok_or_else(|| self.error(format!("missing ')' in '{s}'")))?;
        let disp = if s[..open].trim().is_empty() {
            0
        } else {
            parse_imm(&s[..open], self.line)?
        };
        let ra = parse_reg(&s[open + 1..close], self.line)?;
        Ok((ra, imm16(disp, self.line)? as i16))
    }

    /// A branch target, a label or a numeric offset, as a word offset
    /// relative to the statement's address.
    pub(crate) fn target(&mut self) -> Result<i16, AsmError> {
        let op = self.next()?;
        let delta = match self.labels.get(op.trim()) {
            Some(&target) => (i64::from(target) - i64::from(self.pc)) / 4,
            None => parse_imm(op, self.line)?,
        };
        i16::try_from(delta).map_err(|_| self.error(format!("branch to '{op}' out of range")))
    }
}

/// A statement's instruction: a pseudo-op, the `subf` alias, or a row of
/// the instruction table.
fn instruction(o: &mut Operands) -> Result<Instr, AsmError> {
    let instr = match o.mnemonic {
        "li" => Instr::Addi {
            rd: o.reg()?,
            ra: 0,
            imm: o.imm()? as i16,
        },
        "lis" => Instr::Addis {
            rd: o.reg()?,
            ra: 0,
            imm: o.imm()? as i16,
        },
        "mr" => {
            let (rd, ra) = (o.reg()?, o.reg()?);
            Instr::Or { rd, ra, rb: ra }
        }
        "subf" => parse("sub", o)?,
        mnemonic => parse(mnemonic, o)?,
    };
    if o.read < o.list.len() {
        let (want, got) = (o.read, o.list.len());
        return Err(o.error(format!(
            "'{}' expects {want} operands, got {got}",
            o.mnemonic
        )));
    }
    Ok(instr)
}

/// Assembles `src` at load address `base`.
pub fn assemble(src: &str, base: u32) -> Result<Program, AsmError> {
    assert_eq!(base % 4, 0, "base must be word-aligned");
    // Pass 1: lex statements, record label addresses.
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut labels: HashMap<String, u32> = HashMap::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw;
        if let Some(p) = text.find(['#', ';']) {
            text = &text[..p];
        }
        let mut text = text.trim();
        // Labels (possibly several, though style uses one).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(err(line_no, format!("bad label '{label}'")));
            }
            let addr = base + 4 * stmts.len() as u32;
            if labels.insert(label.to_string(), addr).is_some() {
                return Err(err(line_no, format!("duplicate label '{label}'")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix(".word") {
            let v = parse_imm(rest.trim(), line_no)?;
            stmts.push(Stmt::Word(v as u32));
            continue;
        }
        let (mnemonic, ops) = match text.find(char::is_whitespace) {
            Some(p) => (&text[..p], text[p..].trim()),
            None => (text, ""),
        };
        let operands: Vec<String> = if ops.is_empty() {
            Vec::new()
        } else {
            ops.split(',').map(|s| s.trim().to_string()).collect()
        };
        stmts.push(Stmt::Instr {
            mnemonic: mnemonic.to_ascii_lowercase(),
            operands,
            line: line_no,
        });
    }

    // Pass 2: encode.
    let mut words = Vec::with_capacity(stmts.len());
    for (i, stmt) in stmts.iter().enumerate() {
        let pc = base + 4 * i as u32;
        match stmt {
            Stmt::Word(w) => words.push(*w),
            Stmt::Instr {
                mnemonic,
                operands,
                line,
            } => {
                let mut operands = Operands {
                    mnemonic,
                    list: operands,
                    read: 0,
                    pc,
                    labels: &labels,
                    line: *line,
                };
                words.push(encode(instruction(&mut operands)?));
            }
        }
    }
    Ok(Program {
        base,
        words,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::decode;

    #[test]
    fn basic_program() {
        let p = assemble("start:\n  li r3, 5\n  addi r3, r3, 1\n  halt\n", 0x100).unwrap();
        assert_eq!(p.base, 0x100);
        assert_eq!(p.words.len(), 3);
        assert_eq!(p.label("start"), 0x100);
        assert_eq!(
            decode(p.words[0]),
            Some(Instr::Addi {
                rd: 3,
                ra: 0,
                imm: 5
            })
        );
    }

    #[test]
    fn labels_and_branches() {
        let p = assemble(
            r#"
            li r3, 3
        top:
            addi r3, r3, -1
            cmpwi r3, 0
            bne top
            halt
        "#,
            0,
        )
        .unwrap();
        // bne at word 3 targets word 1: offset -2.
        assert_eq!(decode(p.words[3]), Some(Instr::Bne { off: -2 }));
    }

    #[test]
    fn forward_references() {
        let p = assemble("  b end\n  halt\nend:\n  halt\n", 0).unwrap();
        assert_eq!(decode(p.words[0]), Some(Instr::B { off: 2 }));
    }

    #[test]
    fn memory_operands() {
        let p = assemble("  lwz r3, 8(r4)\n  stw r3, -4(r5)\n  lwz r6, (r7)\n", 0).unwrap();
        assert_eq!(
            decode(p.words[0]),
            Some(Instr::Lwz {
                rd: 3,
                ra: 4,
                imm: 8
            })
        );
        assert_eq!(
            decode(p.words[1]),
            Some(Instr::Stw {
                rd: 3,
                ra: 5,
                imm: -4
            })
        );
        assert_eq!(
            decode(p.words[2]),
            Some(Instr::Lwz {
                rd: 6,
                ra: 7,
                imm: 0
            })
        );
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("  li r3, 0xFF\n  li r4, -1\n  andi r5, r3, 0xF0F0\n", 0).unwrap();
        assert_eq!(
            decode(p.words[2]),
            Some(Instr::Andi {
                rd: 5,
                ra: 3,
                imm: 0xF0F0
            })
        );
        assert_eq!(
            decode(p.words[1]),
            Some(Instr::Addi {
                rd: 4,
                ra: 0,
                imm: -1
            })
        );
    }

    #[test]
    fn comments_both_styles() {
        let p = assemble("  li r3, 1 # hash\n  li r4, 2 ; semi\n", 0).unwrap();
        assert_eq!(p.words.len(), 2);
    }

    #[test]
    fn word_directive() {
        let p = assemble("data:\n  .word 0xCAFEBABE\n", 0x40).unwrap();
        assert_eq!(p.words[0], 0xCAFE_BABE);
        assert_eq!(p.label("data"), 0x40);
    }

    #[test]
    fn error_reporting() {
        let e = assemble("  bogus r1\n", 0).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bogus"));
        let e = assemble("\n  addi r3, r0\n", 0).unwrap_err();
        assert_eq!(e.line, 2);
        let e = assemble("  li r99, 0\n", 0).unwrap_err();
        assert!(e.message.contains("register"));
        let e = assemble("  b nowhere_special_9\n", 0).unwrap_err();
        assert!(e.message.contains("bad immediate") || e.message.contains("branch"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("a:\n  nop\na:\n  nop\n", 0).unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn pseudo_ops() {
        let p = assemble("  mr r3, r4\n  lis r5, 0x1000\n", 0).unwrap();
        assert_eq!(
            decode(p.words[0]),
            Some(Instr::Or {
                rd: 3,
                ra: 4,
                rb: 4
            })
        );
        assert_eq!(
            decode(p.words[1]),
            Some(Instr::Addis {
                rd: 5,
                ra: 0,
                imm: 0x1000
            })
        );
    }

    #[test]
    fn cache_ops_and_irq_ops() {
        let p = assemble("  dcbf (r3)\n  dcbi 32(r4)\n  wrteei 1\n  rfi\n", 0).unwrap();
        assert_eq!(decode(p.words[0]), Some(Instr::Dcbf { ra: 3, imm: 0 }));
        assert_eq!(decode(p.words[1]), Some(Instr::Dcbi { ra: 4, imm: 32 }));
        assert_eq!(decode(p.words[2]), Some(Instr::Wrteei { imm: 1 }));
        assert_eq!(decode(p.words[3]), Some(Instr::Rfi));
    }
}
