//! Bitstream generation and application.
//!
//! Three generation modes, matching the design space the paper discusses:
//!
//! * [`full_bitstream`] — every frame of the device (initial configuration);
//! * [`partial_bitstream`] — an explicit set of frames with **complete**
//!   contents (what BitLinker emits: correct regardless of the fabric's
//!   previous state, at the cost of more data and thus configuration time);
//! * [`differential_bitstream`] — only the frames that differ from a given
//!   baseline (smaller/faster, but *assumes an initial state* — the hazard
//!   the paper highlights when the reconfiguration order is unknown).
//!
//! Every generated stream is a [`PartialStream`]: a word source over the
//! frames it carries, which a feed can push through the ICAP without the
//! stream ever existing whole. [`partial_bitstream`] is its collect.
//!
//! The configuration logic behind the ICAP is the [`Applier`]: it takes a
//! stream one word at a time — sync search, packet headers, register
//! writes — and assembles FDRI payloads one frame at a time, with IDCODE
//! and CRC checking. [`apply_bitstream`] pushes every word of a stream
//! into one and finishes it.
//!
//! # Malformed streams
//!
//! The applier follows the silicon, not a parse-then-apply model:
//!
//! * frames land in configuration memory as their last word arrives;
//! * the first error (grammar, IDCODE, CRC, WCFG, FAR, frame framing)
//!   latches, and every word after it is ignored;
//! * [`Applier::finish`] returns the latched error (the HWICAP's commit
//!   sets its status-register error bit from it);
//! * frames written before the error stay written, so a rejected stream
//!   can leave a partial write behind. Readback-verify — the module
//!   manager's retry ladder — is what detects and repairs it.
//!
//! For a stream with one fault this reports the error a whole-stream
//! parse followed by an apply reports; with several, the first in stream
//! order wins (a parse would report a grammar error anywhere first).

use crate::crc::CrcAccumulator;
use crate::fault::FaultPlan;
use crate::packet::{
    decode_far, encode_far, header_len, write_header, Bitstream, Command, ConfigRegister,
    PacketReader, ParseError, Token, DUMMY_WORD, SYNC_WORD,
};
use vp2_fabric::config::{ConfigMemory, FrameAddress};

/// Errors while applying a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// Could not parse the word stream.
    Parse(ParseError),
    /// IDCODE register write did not match the target device.
    IdcodeMismatch {
        /// Expected device IDCODE.
        expected: u32,
        /// Value found in the stream.
        found: u32,
    },
    /// CRC register write did not match the accumulated CRC.
    CrcMismatch {
        /// Accumulated value.
        expected: u32,
        /// Value found in the stream.
        found: u32,
    },
    /// FDRI write without a preceding WCFG command.
    FdriWithoutWcfg,
    /// FDRI write without a valid FAR.
    NoFrameAddress,
    /// FDRI payload is not a whole number of frames.
    PartialFrame,
    /// FAR value did not decode or addresses no frame on this device.
    BadFrameAddress(u32),
    /// Frame auto-increment ran off the end of the device.
    AddressOverflow,
}

impl From<ParseError> for ApplyError {
    fn from(e: ParseError) -> Self {
        ApplyError::Parse(e)
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Parse(e) => write!(f, "parse error: {e}"),
            ApplyError::IdcodeMismatch { expected, found } => {
                write!(
                    f,
                    "IDCODE mismatch: stream {found:#010x}, device {expected:#010x}"
                )
            }
            ApplyError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "CRC mismatch: accumulated {expected:#010x}, stream {found:#010x}"
                )
            }
            ApplyError::FdriWithoutWcfg => write!(f, "FDRI write without WCFG command"),
            ApplyError::NoFrameAddress => write!(f, "FDRI write without a FAR"),
            ApplyError::PartialFrame => write!(f, "FDRI payload is not a whole frame multiple"),
            ApplyError::BadFrameAddress(w) => write!(f, "bad FAR value {w:#010x}"),
            ApplyError::AddressOverflow => write!(f, "frame address ran past device end"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Result of a successful apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// Number of frames written to configuration memory.
    pub frames_written: usize,
    /// Total stream length in words (determines ICAP shift time).
    pub words_total: usize,
}

/// Words of a stream outside its frame-carrying packets: the dummy and
/// sync words, then the prologue and the epilogue, three single-word
/// register writes each, a header and a payload word apiece.
const FRAMING_WORDS: usize = 2 + 2 * 2 * 3;

/// Generates a full-device bitstream from `mem`.
pub fn full_bitstream(mem: &ConfigMemory, idcode: u32) -> Bitstream {
    let addrs: Vec<FrameAddress> = mem.frame_addresses().collect();
    partial_bitstream(mem, &addrs, idcode)
}

/// `frames` in device order without repeats, each with its linear index.
/// A partial stream carries them as runs cut where the order has a gap,
/// each run one FAR + FDRI pair.
fn device_order(mem: &ConfigMemory, frames: &[FrameAddress]) -> Vec<(usize, FrameAddress)> {
    let mut order: Vec<(usize, FrameAddress)> = frames
        .iter()
        .map(|&a| {
            let i = mem.linear_index(a).expect("frame address valid for device");
            (i, a)
        })
        .collect();
    order.sort_unstable_by_key(|&(i, _)| i);
    order.dedup_by_key(|&mut (i, _)| i);
    order
}

/// FDRI payload words of the run starting at `order[0]`.
fn run_payload(mem: &ConfigMemory, order: &[(usize, FrameAddress)]) -> usize {
    let first = order[0].0;
    order
        .iter()
        .zip(first..)
        .take_while(|&(&(i, _), want)| i == want)
        .map(|(&(_, a), _)| mem.frame(a).len())
        .sum()
}

/// Words of a whole stream over frames in `order`.
fn stream_len(mem: &ConfigMemory, order: &[(usize, FrameAddress)]) -> usize {
    let body: usize = order
        .chunk_by(|a, b| b.0 == a.0 + 1)
        .map(|run| {
            let len = run_payload(mem, run);
            2 + header_len(len) + len
        })
        .sum();
    FRAMING_WORDS + body
}

/// The words of a partial bitstream carrying the **complete** contents of
/// a frame set, produced one at a time from the frames themselves: the
/// dummy and sync words, the prologue (IDCODE check, CRC reset, WCFG), one
/// FAR + FDRI pair per run of frames consecutive in device order, and the
/// epilogue (CRC check, start, desync). The CRC is accumulated as the
/// words go out, so the stream never exists whole unless collected.
#[derive(Debug, Clone)]
pub struct PartialStream<'a> {
    mem: &'a ConfigMemory,
    /// The frames carried, in device order without repeats.
    order: Vec<(usize, FrameAddress)>,
    /// Next entry of `order` to stream.
    next: usize,
    /// Words of the current frame not yet out.
    frame: &'a [u32],
    /// Framing words waiting ahead of the frame words; `staged_at` of
    /// `staged_len` are out.
    staged: [u32; 8],
    staged_len: usize,
    staged_at: usize,
    crc: CrcAccumulator,
    /// Has the epilogue been staged?
    ended: bool,
    /// Words still to come.
    left: usize,
}

impl<'a> PartialStream<'a> {
    fn new(mem: &'a ConfigMemory, frames: &[FrameAddress], idcode: u32) -> Self {
        let order = device_order(mem, frames);
        let mut s = PartialStream {
            mem,
            left: stream_len(mem, &order),
            order,
            next: 0,
            frame: &[],
            staged: [0; 8],
            staged_len: 0,
            staged_at: 0,
            crc: CrcAccumulator::new(),
            ended: false,
        };
        s.stage(DUMMY_WORD);
        s.stage(SYNC_WORD);
        s.stage_write(ConfigRegister::Idcode, idcode);
        s.stage_write(ConfigRegister::Cmd, Command::Rcrc as u32);
        s.crc.reset();
        s.stage_write(ConfigRegister::Cmd, Command::Wcfg as u32);
        s
    }

    fn stage(&mut self, word: u32) {
        self.staged[self.staged_len] = word;
        self.staged_len += 1;
    }

    fn stage_header(&mut self, reg: ConfigRegister, len: usize) {
        let (header, n) = write_header(reg, len);
        for &h in &header[..n] {
            self.stage(h);
        }
    }

    /// One single-word register write, absorbed into the CRC.
    fn stage_write(&mut self, reg: ConfigRegister, word: u32) {
        self.stage_header(reg, 1);
        self.stage(word);
        self.crc.absorb(reg as u8, word);
    }
}

impl Iterator for PartialStream<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.staged_at < self.staged_len {
                self.staged_at += 1;
                self.left -= 1;
                return Some(self.staged[self.staged_at - 1]);
            }
            if let Some((&w, rest)) = self.frame.split_first() {
                self.frame = rest;
                self.crc.absorb(ConfigRegister::Fdri as u8, w);
                self.left -= 1;
                return Some(w);
            }
            self.staged_len = 0;
            self.staged_at = 0;
            if let Some(&(i, addr)) = self.order.get(self.next) {
                if self.next == 0 || self.order[self.next - 1].0 + 1 != i {
                    // A run begins: its FAR write and FDRI header.
                    let payload = run_payload(self.mem, &self.order[self.next..]);
                    self.stage_write(ConfigRegister::Far, encode_far(addr));
                    self.stage_header(ConfigRegister::Fdri, payload);
                }
                self.frame = self.mem.frame(addr);
                self.next += 1;
            } else if !self.ended {
                self.ended = true;
                // The CRC register write resets the accumulator instead
                // of feeding it, so its word is staged without absorbing.
                let crc = self.crc.value();
                self.stage_header(ConfigRegister::Crc, 1);
                self.stage(crc);
                self.stage_write(ConfigRegister::Cmd, Command::Start as u32);
                self.stage_write(ConfigRegister::Cmd, Command::Desync as u32);
            } else {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for PartialStream<'_> {}

/// The words of [`partial_bitstream`]`(mem, frames, idcode)`, streamed
/// from the frames instead of collected: `frames` of `mem`, in any order
/// and with repeats allowed, for a device with `idcode`.
pub fn partial_stream<'a>(
    mem: &'a ConfigMemory,
    frames: &[FrameAddress],
    idcode: u32,
) -> PartialStream<'a> {
    PartialStream::new(mem, frames, idcode)
}

/// Generates a partial bitstream carrying the **complete** contents of the
/// given frames (taken from `mem`): [`partial_stream`] collected into one
/// buffer of the stream's exact length.
pub fn partial_bitstream(mem: &ConfigMemory, frames: &[FrameAddress], idcode: u32) -> Bitstream {
    let stream = partial_stream(mem, frames, idcode);
    let mut words = Vec::with_capacity(stream.len());
    words.extend(stream);
    Bitstream { words }
}

/// The word count of [`partial_bitstream`]`(mem, frames, _)`, from the same
/// run grouping, without building the stream.
pub fn partial_bitstream_len(mem: &ConfigMemory, frames: &[FrameAddress]) -> usize {
    stream_len(mem, &device_order(mem, frames))
}

/// Generates a differential bitstream: only frames of `target` that differ
/// from `base`.
pub fn differential_bitstream(
    base: &ConfigMemory,
    target: &ConfigMemory,
    idcode: u32,
) -> Bitstream {
    let changed = target.diff(base);
    partial_bitstream(target, &changed, idcode)
}

/// The configuration logic's register state while it applies a stream.
#[derive(Debug, Clone)]
struct Registers {
    idcode: u32,
    crc: CrcAccumulator,
    wcfg: bool,
    /// A DESYNC command ran: the words after it are parsed, not applied.
    desynced: bool,
    far_index: Option<usize>,
    /// The register write in progress and its first payload word.
    reg: ConfigRegister,
    first: Option<u32>,
    /// FDRI: the index of the frame the next payload word belongs to,
    /// the address and length of the frame being assembled (`None`
    /// between frames), and its words so far. A frame is written when it
    /// is whole.
    fdri_index: usize,
    frame_at: Option<(FrameAddress, usize)>,
    frame: Vec<u32>,
    frames_written: usize,
    frames_corrupted: u64,
}

impl Registers {
    fn new(idcode: u32) -> Self {
        Registers {
            idcode,
            crc: CrcAccumulator::new(),
            wcfg: false,
            desynced: false,
            far_index: None,
            reg: ConfigRegister::Crc,
            first: None,
            fdri_index: 0,
            frame_at: None,
            frame: Vec::new(),
            frames_written: 0,
            frames_corrupted: 0,
        }
    }

    /// Applies one grammar token.
    #[inline]
    fn token(
        &mut self,
        token: Token,
        mem: &mut ConfigMemory,
        fault: Option<&mut FaultPlan>,
    ) -> Result<(), ApplyError> {
        match token {
            Token::Word(_) if self.desynced => Ok(()),
            Token::Word(w) => {
                let first = self.first.is_none();
                if first {
                    self.first = Some(w);
                }
                self.word(w, first, mem, fault)
            }
            _ => self.control(token),
        }
    }

    /// A grammar token that carries no payload word.
    fn control(&mut self, token: Token) -> Result<(), ApplyError> {
        if self.desynced {
            return Ok(());
        }
        match token {
            Token::Header(reg) => {
                self.reg = reg;
                self.first = None;
                if reg == ConfigRegister::Fdri {
                    if !self.wcfg {
                        return Err(ApplyError::FdriWithoutWcfg);
                    }
                    self.fdri_index = self.far_index.ok_or(ApplyError::NoFrameAddress)?;
                }
                Ok(())
            }
            Token::End => self.end(),
            Token::Nop | Token::Word(_) => Ok(()),
        }
    }

    /// One payload word of the write in progress.
    fn word(
        &mut self,
        w: u32,
        first: bool,
        mem: &mut ConfigMemory,
        fault: Option<&mut FaultPlan>,
    ) -> Result<(), ApplyError> {
        let reg = self.reg;
        match reg {
            ConfigRegister::Fdri => {
                self.crc.absorb(reg as u8, w);
                self.fdri_word(w, mem, fault)
            }
            ConfigRegister::Crc => {
                // Only the first word is checked; the check resets the
                // accumulator instead of feeding it.
                if first {
                    let expected = self.crc.value();
                    if expected != w {
                        return Err(ApplyError::CrcMismatch { expected, found: w });
                    }
                    self.crc.reset();
                }
                Ok(())
            }
            ConfigRegister::Idcode => {
                if first && w != self.idcode {
                    return Err(ApplyError::IdcodeMismatch {
                        expected: self.idcode,
                        found: w,
                    });
                }
                self.crc.absorb(reg as u8, w);
                Ok(())
            }
            ConfigRegister::Far => {
                self.crc.absorb(reg as u8, w);
                if first {
                    let addr = decode_far(w).ok_or(ApplyError::BadFrameAddress(w))?;
                    self.far_index = Some(
                        mem.linear_index(addr)
                            .ok_or(ApplyError::BadFrameAddress(w))?,
                    );
                }
                Ok(())
            }
            ConfigRegister::Cmd | ConfigRegister::Ctl => {
                self.crc.absorb(reg as u8, w);
                Ok(())
            }
        }
    }

    /// One FDRI word: assembled into the current frame, which is written
    /// once whole. A frame that already holds its words is left alone (so
    /// a frame shared with another memory stays shared) unless a fault
    /// plan is active, which sees every frame.
    #[inline]
    fn fdri_word(
        &mut self,
        w: u32,
        mem: &mut ConfigMemory,
        fault: Option<&mut FaultPlan>,
    ) -> Result<(), ApplyError> {
        let (addr, len) = match self.frame_at {
            Some(at) => at,
            None => {
                let addr = mem
                    .frame_address(self.fdri_index)
                    .ok_or(ApplyError::AddressOverflow)?;
                *self.frame_at.insert((addr, mem.frame(addr).len()))
            }
        };
        self.frame.push(w);
        if self.frame.len() < len {
            return Ok(());
        }
        let plan = fault.filter(|p| p.is_active());
        if plan.is_some() || mem.frame(addr) != &self.frame[..] {
            let frame = mem.frame_mut(addr);
            frame.copy_from_slice(&self.frame);
            if let Some(plan) = plan {
                self.frames_corrupted += u64::from(plan.corrupt_frame(frame));
            }
        }
        self.frame.clear();
        self.frame_at = None;
        self.frames_written += 1;
        self.fdri_index += 1;
        Ok(())
    }

    /// The write in progress has delivered its whole payload.
    fn end(&mut self) -> Result<(), ApplyError> {
        match self.reg {
            ConfigRegister::Crc | ConfigRegister::Idcode | ConfigRegister::Far
                if self.first.is_none() =>
            {
                Err(ApplyError::PartialFrame)
            }
            ConfigRegister::Cmd => {
                // A command acts once its write is whole: every word is
                // absorbed first, so an RCRC resets after its own word.
                match self.first.and_then(Command::from_word) {
                    Some(Command::Wcfg) => self.wcfg = true,
                    Some(Command::Rcrc) => self.crc.reset(),
                    Some(Command::Desync) => self.desynced = true,
                    _ => {}
                }
                Ok(())
            }
            ConfigRegister::Fdri => {
                if self.frame_at.is_some() {
                    return Err(ApplyError::PartialFrame);
                }
                self.far_index = Some(self.fdri_index);
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// The configuration logic behind the ICAP, one word at a time: the
/// [`PacketReader`] grammar, then IDCODE, CRC, command, FAR and FDRI
/// semantics, with FDRI payloads assembled and written one frame at a
/// time. It holds at most one frame of a stream. The module docs state
/// its contract for malformed streams.
#[derive(Debug, Clone)]
pub struct Applier {
    reader: PacketReader,
    regs: Registers,
    words: usize,
    error: Option<ApplyError>,
}

impl Applier {
    /// The configuration logic of a device with `idcode`, before a
    /// stream's first word.
    pub fn new(idcode: u32) -> Self {
        Applier {
            reader: PacketReader::new(),
            regs: Registers::new(idcode),
            words: 0,
            error: None,
        }
    }

    /// Takes one stream word, writing any frame it completes into `mem`
    /// (through `fault`, when a plan is given). After an error, words are
    /// counted and otherwise ignored.
    #[inline]
    pub fn push(&mut self, word: u32, mem: &mut ConfigMemory, mut fault: Option<&mut FaultPlan>) {
        self.words += 1;
        if self.error.is_some() {
            return;
        }
        let regs = &mut self.regs;
        let mut sink = |t: Token| regs.token(t, mem, fault.as_deref_mut());
        if let Err(e) = self.reader.push(word, &mut sink) {
            self.error = Some(e);
        }
    }

    /// Frames the fault plan corrupted in this stream so far.
    pub fn frames_corrupted(&self) -> u64 {
        self.regs.frames_corrupted
    }

    /// Ends the stream: the latched error, or the error of a stream that
    /// has no sync word or stops inside a packet, or the apply report.
    /// The applier is then ready for the next stream.
    pub fn finish(&mut self) -> Result<ApplyReport, ApplyError> {
        let mut done = std::mem::replace(self, Applier::new(self.regs.idcode));
        if let Some(e) = done.error {
            return Err(e);
        }
        // Only a trailing zero-count write can complete here: no payload
        // word, so no frame, is left to apply.
        let regs = &mut done.regs;
        done.reader.finish(&mut |t: Token| regs.control(t))?;
        Ok(ApplyReport {
            frames_written: regs.frames_written,
            words_total: done.words,
        })
    }
}

/// Applies a bitstream to `mem`, enforcing IDCODE and CRC checks.
pub fn apply_bitstream(
    bs: &Bitstream,
    mem: &mut ConfigMemory,
    device_idcode: u32,
) -> Result<ApplyReport, ApplyError> {
    apply_bitstream_faulty(bs, mem, device_idcode, None)
}

/// [`apply_bitstream`] with an optional [`FaultPlan`] corrupting frame
/// payloads at the FDRI → configuration-cell boundary: every word pushed
/// into an [`Applier`], then the stream finished.
///
/// The CRC is accumulated over the stream *as received* — corruption
/// happens after the check, so a faulty apply still succeeds and only a
/// readback-verify pass can detect the damage. With `None` (or an
/// inactive plan) this is bit-identical to [`apply_bitstream`].
pub fn apply_bitstream_faulty(
    bs: &Bitstream,
    mem: &mut ConfigMemory,
    device_idcode: u32,
    mut fault: Option<&mut FaultPlan>,
) -> Result<ApplyReport, ApplyError> {
    let mut applier = Applier::new(device_idcode);
    for &w in &bs.words {
        applier.push(w, mem, fault.as_deref_mut());
    }
    applier.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use vp2_fabric::coords::{ClbCoord, LutIndex, SliceIndex};
    use vp2_fabric::{Device, DeviceKind};

    const ID: u32 = crate::IDCODE_XC2VP7;

    fn dev() -> Device {
        Device::new(DeviceKind::Xc2vp7)
    }

    /// The standard packet prologue (IDCODE check, CRC reset, WCFG), as
    /// packets: the oracle side of `stream_writer_matches_the_packet_oracle`
    /// and the head of the hand-built malformed streams below.
    fn prologue(idcode: u32) -> Vec<Packet> {
        vec![
            Packet::Write {
                reg: ConfigRegister::Idcode,
                data: vec![idcode],
            },
            Packet::Write {
                reg: ConfigRegister::Cmd,
                data: vec![Command::Rcrc as u32],
            },
            Packet::Write {
                reg: ConfigRegister::Cmd,
                data: vec![Command::Wcfg as u32],
            },
        ]
    }

    /// Appends the CRC-check + start + desync epilogue as packets, computing
    /// the CRC the same way the apply path does.
    fn epilogue(packets: &mut Vec<Packet>) {
        let mut crc = CrcAccumulator::new();
        for p in packets.iter() {
            if let Packet::Write { reg, data } = p {
                match reg {
                    ConfigRegister::Crc => crc.reset(),
                    _ => {
                        for &w in data {
                            crc.absorb(*reg as u8, w);
                        }
                        if *reg == ConfigRegister::Cmd && data == &[Command::Rcrc as u32] {
                            crc.reset();
                        }
                    }
                }
            }
        }
        let value = crc.value();
        packets.push(Packet::Write {
            reg: ConfigRegister::Crc,
            data: vec![value],
        });
        packets.push(Packet::Write {
            reg: ConfigRegister::Cmd,
            data: vec![Command::Start as u32],
        });
        packets.push(Packet::Write {
            reg: ConfigRegister::Cmd,
            data: vec![Command::Desync as u32],
        });
    }

    /// [`partial_bitstream`] as packets: prologue, one FAR + FDRI pair per
    /// device-order run, epilogue, then [`Bitstream::from_packets`].
    fn packet_oracle(mem: &ConfigMemory, frames: &[FrameAddress], idcode: u32) -> Bitstream {
        let mut idx: Vec<usize> = frames
            .iter()
            .map(|&a| mem.linear_index(a).unwrap())
            .collect();
        idx.sort_unstable();
        idx.dedup();
        let mut packets = prologue(idcode);
        for run in idx.chunk_by(|a, b| *b == a + 1) {
            packets.push(Packet::Write {
                reg: ConfigRegister::Far,
                data: vec![encode_far(mem.frame_address(run[0]).unwrap())],
            });
            let data = run
                .iter()
                .flat_map(|&i| mem.frame(mem.frame_address(i).unwrap()).to_vec())
                .collect();
            packets.push(Packet::Write {
                reg: ConfigRegister::Fdri,
                data,
            });
        }
        epilogue(&mut packets);
        Bitstream::from_packets(&packets)
    }

    #[test]
    fn frames_already_holding_the_stream_stay_shared() {
        let src = patterned_memory();
        let bs = full_bitstream(&src, ID);
        let mut dst = src.clone();
        apply_bitstream(&bs, &mut dst, ID).unwrap();
        assert!(src.frame_addresses().all(|a| dst.shares_frame(&src, a)));
        // Onto a blank memory, exactly the frames whose words change are
        // written; the blank ones keep sharing the zero frame.
        let blank = ConfigMemory::new(&dev());
        let mut dst = blank.clone();
        apply_bitstream(&bs, &mut dst, ID).unwrap();
        assert_eq!(dst, src);
        let changed = src.diff(&blank);
        for a in src.frame_addresses() {
            assert_eq!(dst.shares_frame(&blank, a), !changed.contains(&a), "{a}");
        }
        // A fault plan sees every frame, so an active one writes them all.
        let mut dst = src.clone();
        let mut plan = FaultPlan::new(7, 1e-9);
        apply_bitstream_faulty(&bs, &mut dst, ID, Some(&mut plan)).unwrap();
        assert!(src.frame_addresses().all(|a| !dst.shares_frame(&src, a)));
    }

    #[test]
    fn stream_writer_matches_the_packet_oracle() {
        let src = patterned_memory();
        let all: Vec<FrameAddress> = src.frame_addresses().collect();
        let mut rng = vp2_sim::SplitMix64::new(0x5EED_B175);
        let mut sets = vec![Vec::new(), all.clone(), all[..1].to_vec()];
        for _ in 0..40 {
            // Random subsets, unsorted and with repeats, so runs of every
            // length (including FDRI payloads past the type-1 count) occur.
            let n = 1 + rng.next_u64() as usize % 64;
            let start = rng.next_u64() as usize % all.len();
            let mut set: Vec<FrameAddress> = (0..n)
                .map(|k| all[(start + k * (1 + rng.next_u64() as usize % 3)) % all.len()])
                .collect();
            set.reverse();
            sets.push(set);
        }
        for set in &sets {
            let bs = partial_bitstream(&src, set, ID);
            assert_eq!(bs, packet_oracle(&src, set, ID), "{} frames", set.len());
            // Sized up front: the buffer never grew past the stream.
            assert_eq!(bs.words.capacity(), bs.word_count(), "{} frames", set.len());
        }
    }

    fn patterned_memory() -> ConfigMemory {
        let mut m = ConfigMemory::new(&dev());
        for col in 0..8 {
            for row in 0..8 {
                m.set_lut(
                    ClbCoord::new(col, row),
                    SliceIndex::new((row % 4) as u8),
                    LutIndex::F,
                    0x8000 | (col << 8) | row,
                );
                m.set_routing_word(
                    ClbCoord::new(col, row),
                    1,
                    u64::from(col) * 1000 + u64::from(row),
                );
            }
        }
        m
    }

    #[test]
    fn full_roundtrip() {
        let src = patterned_memory();
        let bs = full_bitstream(&src, ID);
        let mut dst = ConfigMemory::new(&dev());
        let report = apply_bitstream(&bs, &mut dst, ID).unwrap();
        assert_eq!(dst, src);
        assert_eq!(report.frames_written, src.frame_count());
    }

    #[test]
    fn differential_roundtrip_and_size() {
        let base = ConfigMemory::new(&dev());
        let target = patterned_memory();
        let diff_bs = differential_bitstream(&base, &target, ID);
        let full_bs = full_bitstream(&target, ID);
        assert!(
            diff_bs.word_count() < full_bs.word_count() / 4,
            "differential must be much smaller: {} vs {}",
            diff_bs.word_count(),
            full_bs.word_count()
        );
        let mut mem = base.clone();
        apply_bitstream(&diff_bs, &mut mem, ID).unwrap();
        assert_eq!(mem, target);
    }

    #[test]
    fn differential_assumes_initial_state() {
        // The hazard the paper describes: applying a differential config on
        // top of the WRONG initial state leaves stale bits behind.
        let base = ConfigMemory::new(&dev());
        let target = patterned_memory();
        let diff_bs = differential_bitstream(&base, &target, ID);
        // Wrong initial state: something already configured elsewhere.
        let mut wrong = ConfigMemory::new(&dev());
        wrong.set_lut(
            ClbCoord::new(20, 20),
            SliceIndex::new(0),
            LutIndex::F,
            0xFFFF,
        );
        apply_bitstream(&diff_bs, &mut wrong, ID).unwrap();
        assert_ne!(wrong, target, "stale configuration bits survive");
        assert_eq!(
            wrong.lut(ClbCoord::new(20, 20), SliceIndex::new(0), LutIndex::F),
            0xFFFF
        );
    }

    #[test]
    fn partial_of_explicit_frames() {
        let src = patterned_memory();
        let frames: Vec<FrameAddress> = src.diff(&ConfigMemory::new(&dev()));
        let bs = partial_bitstream(&src, &frames, ID);
        let mut dst = ConfigMemory::new(&dev());
        let report = apply_bitstream(&bs, &mut dst, ID).unwrap();
        assert_eq!(report.frames_written, frames.len());
        assert_eq!(dst, src);
    }

    #[test]
    fn faulty_apply_passes_crc_but_corrupts_frames() {
        let src = patterned_memory();
        let bs = full_bitstream(&src, ID);
        let mut dst = ConfigMemory::new(&dev());
        let mut plan = FaultPlan::new(5, 1.0);
        // CRC verifies on the received stream: the apply still succeeds.
        let report = apply_bitstream_faulty(&bs, &mut dst, ID, Some(&mut plan)).unwrap();
        assert_eq!(report.frames_written, src.frame_count());
        assert!(plan.frames_corrupted > 0);
        // …but readback verification catches every corrupted frame.
        let frames: Vec<FrameAddress> = src.frame_addresses().collect();
        let bad = dst.mismatched_frames(&src, &frames);
        assert_eq!(bad.len() as u64, plan.frames_corrupted);
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical() {
        let src = patterned_memory();
        let bs = full_bitstream(&src, ID);
        let mut with_none = ConfigMemory::new(&dev());
        apply_bitstream(&bs, &mut with_none, ID).unwrap();
        let mut with_zero = ConfigMemory::new(&dev());
        let mut plan = FaultPlan::new(5, 0.0);
        apply_bitstream_faulty(&bs, &mut with_zero, ID, Some(&mut plan)).unwrap();
        assert_eq!(with_none, with_zero);
        assert_eq!(plan.frames_corrupted, 0);
    }

    #[test]
    fn idcode_mismatch_rejected() {
        let src = patterned_memory();
        let bs = full_bitstream(&src, ID);
        let mut dst = ConfigMemory::new(&dev());
        let err = apply_bitstream(&bs, &mut dst, crate::IDCODE_XC2VP30).unwrap_err();
        assert!(matches!(err, ApplyError::IdcodeMismatch { .. }));
    }

    #[test]
    fn corruption_detected_by_crc() {
        let src = patterned_memory();
        let mut bs = full_bitstream(&src, ID);
        // Flip a bit in the middle of the frame data.
        let mid = bs.words.len() / 2;
        bs.words[mid] ^= 0x0001_0000;
        let mut dst = ConfigMemory::new(&dev());
        let err = apply_bitstream(&bs, &mut dst, ID).unwrap_err();
        assert!(
            matches!(err, ApplyError::CrcMismatch { .. } | ApplyError::Parse(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn fdri_without_wcfg_rejected() {
        let mut packets = vec![Packet::Write {
            reg: ConfigRegister::Idcode,
            data: vec![ID],
        }];
        packets.push(Packet::Write {
            reg: ConfigRegister::Far,
            data: vec![encode_far(FrameAddress {
                block: vp2_fabric::config::FrameBlock::Clb { col: 0 },
                minor: 0,
            })],
        });
        packets.push(Packet::Write {
            reg: ConfigRegister::Fdri,
            data: vec![0; 88],
        });
        let bs = Bitstream::from_packets(&packets);
        let mut dst = ConfigMemory::new(&dev());
        assert_eq!(
            apply_bitstream(&bs, &mut dst, ID).unwrap_err(),
            ApplyError::FdriWithoutWcfg
        );
    }

    #[test]
    fn partial_frame_payload_rejected() {
        let mut packets = prologue(ID);
        packets.push(Packet::Write {
            reg: ConfigRegister::Far,
            data: vec![encode_far(FrameAddress {
                block: vp2_fabric::config::FrameBlock::Clb { col: 0 },
                minor: 0,
            })],
        });
        packets.push(Packet::Write {
            reg: ConfigRegister::Fdri,
            data: vec![0; 87], // one word short of a frame
        });
        let bs = Bitstream::from_packets(&packets);
        let mut dst = ConfigMemory::new(&dev());
        assert_eq!(
            apply_bitstream(&bs, &mut dst, ID).unwrap_err(),
            ApplyError::PartialFrame
        );
    }

    /// Applies `packets` after the standard prologue to a blank memory.
    fn apply_after_prologue(packets: Vec<Packet>) -> Result<ApplyReport, ApplyError> {
        let mut stream = prologue(ID);
        stream.extend(packets);
        let bs = Bitstream::from_packets(&stream);
        apply_bitstream(&bs, &mut ConfigMemory::new(&dev()), ID)
    }

    #[test]
    fn far_off_the_device_rejected() {
        // The FAR decodes, but the device has no CLB column 200.
        let far = encode_far(FrameAddress {
            block: vp2_fabric::config::FrameBlock::Clb { col: 200 },
            minor: 0,
        });
        let packets = vec![Packet::Write {
            reg: ConfigRegister::Far,
            data: vec![far],
        }];
        assert_eq!(
            apply_after_prologue(packets).unwrap_err(),
            ApplyError::BadFrameAddress(far)
        );
    }

    #[test]
    fn fdri_past_the_last_frame_rejected() {
        let mem = ConfigMemory::new(&dev());
        let last = mem.frame_address(mem.frame_count() - 1).unwrap();
        let len = mem.frame(last).len();
        let packets = vec![
            Packet::Write {
                reg: ConfigRegister::Far,
                data: vec![encode_far(last)],
            },
            Packet::Write {
                reg: ConfigRegister::Fdri,
                data: vec![0; 2 * len],
            },
        ];
        assert_eq!(
            apply_after_prologue(packets).unwrap_err(),
            ApplyError::AddressOverflow
        );
    }

    #[test]
    fn fdri_before_any_far_rejected() {
        let packets = vec![Packet::Write {
            reg: ConfigRegister::Fdri,
            data: vec![0; 88],
        }];
        assert_eq!(
            apply_after_prologue(packets).unwrap_err(),
            ApplyError::NoFrameAddress
        );
    }

    #[test]
    fn far_autoincrement_spans_columns() {
        // One FDRI write covering the last frame of CLB column 0 and the
        // first frame of CLB column 1.
        let src = patterned_memory();
        let a1 = FrameAddress {
            block: vp2_fabric::config::FrameBlock::Clb { col: 0 },
            minor: 21,
        };
        let a2 = FrameAddress {
            block: vp2_fabric::config::FrameBlock::Clb { col: 1 },
            minor: 0,
        };
        let bs = partial_bitstream(&src, &[a1, a2], ID);
        // Consecutive in device order → exactly one FAR write.
        let fars = bs
            .parse()
            .unwrap()
            .iter()
            .filter(|p| {
                matches!(
                    p,
                    Packet::Write {
                        reg: ConfigRegister::Far,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(fars, 1);
        let mut dst = ConfigMemory::new(&dev());
        apply_bitstream(&bs, &mut dst, ID).unwrap();
        assert_eq!(dst.frame(a1), src.frame(a1));
        assert_eq!(dst.frame(a2), src.frame(a2));
    }

    #[test]
    fn empty_partial_is_header_only() {
        let src = ConfigMemory::new(&dev());
        let bs = partial_bitstream(&src, &[], ID);
        let mut dst = ConfigMemory::new(&dev());
        let report = apply_bitstream(&bs, &mut dst, ID).unwrap();
        assert_eq!(report.frames_written, 0);
        assert!(bs.word_count() < 20);
    }
}
