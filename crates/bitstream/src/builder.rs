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
//! [`apply_bitstream`] replays a stream into a [`ConfigMemory`] with IDCODE
//! and CRC checking — the model of what the ICAP-fed configuration logic
//! does.

use crate::crc::CrcAccumulator;
use crate::fault::FaultPlan;
use crate::packet::{
    decode_far, encode_far, header_len, push_write_header, Bitstream, Command, ConfigRegister,
    Packet, DUMMY_WORD, SYNC_WORD,
};
use vp2_fabric::config::{ConfigMemory, FrameAddress};

/// Errors while applying a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// Could not parse the word stream.
    Parse(crate::packet::ParseError),
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

/// A configuration stream written straight into one buffer sized up
/// front, accumulating the CRC the way the apply path does.
struct StreamWriter {
    words: Vec<u32>,
    crc: CrcAccumulator,
}

/// Words of a stream outside its frame-carrying packets: the dummy and
/// sync words, then the prologue and the epilogue, three single-word
/// register writes each, a header and a payload word apiece.
const FRAMING_WORDS: usize = 2 + 2 * 2 * 3;

impl StreamWriter {
    /// Starts a stream whose frame-carrying packets take `body` words:
    /// dummy and sync words, then the prologue (IDCODE check, CRC reset,
    /// WCFG).
    fn new(idcode: u32, body: usize) -> Self {
        let mut words = Vec::with_capacity(FRAMING_WORDS + body);
        words.extend_from_slice(&[DUMMY_WORD, SYNC_WORD]);
        let mut s = StreamWriter {
            words,
            crc: CrcAccumulator::new(),
        };
        s.write(ConfigRegister::Idcode, &[idcode]);
        s.write(ConfigRegister::Cmd, &[Command::Rcrc as u32]);
        s.crc.reset();
        s.write(ConfigRegister::Cmd, &[Command::Wcfg as u32]);
        s
    }

    /// One register write: header and payload.
    fn write(&mut self, reg: ConfigRegister, data: &[u32]) {
        self.header(reg, data.len());
        self.payload(reg, data);
    }

    /// The header of a register write carrying `len` payload words.
    fn header(&mut self, reg: ConfigRegister, len: usize) {
        push_write_header(&mut self.words, reg, len);
    }

    /// Payload words of the register write whose header came last.
    fn payload(&mut self, reg: ConfigRegister, data: &[u32]) {
        for &w in data {
            self.crc.absorb(reg as u8, w);
        }
        self.words.extend_from_slice(data);
    }

    /// Appends the epilogue (CRC check, start, desync) and hands over the
    /// stream, which fills its buffer exactly.
    fn finish(mut self) -> Bitstream {
        let crc = self.crc.value();
        // The CRC register write resets the accumulator instead of
        // feeding it, so its word is pushed without absorbing.
        self.header(ConfigRegister::Crc, 1);
        self.words.push(crc);
        self.write(ConfigRegister::Cmd, &[Command::Start as u32]);
        self.write(ConfigRegister::Cmd, &[Command::Desync as u32]);
        Bitstream { words: self.words }
    }
}

/// Generates a full-device bitstream from `mem`.
pub fn full_bitstream(mem: &ConfigMemory, idcode: u32) -> Bitstream {
    let addrs: Vec<FrameAddress> = mem.frame_addresses().collect();
    partial_bitstream(mem, &addrs, idcode)
}

/// The runs a partial bitstream over `frames` carries: the frames in
/// device order without repeats, cut where the order has a gap. Each run
/// is one FAR + FDRI pair.
struct Runs<'a> {
    mem: &'a ConfigMemory,
    indexed: Vec<(usize, FrameAddress)>,
}

impl<'a> Runs<'a> {
    fn new(mem: &'a ConfigMemory, frames: &[FrameAddress]) -> Self {
        let mut indexed: Vec<(usize, FrameAddress)> = frames
            .iter()
            .map(|&a| {
                let i = mem.linear_index(a).expect("frame address valid for device");
                (i, a)
            })
            .collect();
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.dedup_by_key(|&mut (i, _)| i);
        Runs { mem, indexed }
    }

    fn iter(&self) -> impl Iterator<Item = &[(usize, FrameAddress)]> {
        self.indexed.chunk_by(|a, b| b.0 == a.0 + 1)
    }

    /// FDRI payload words of one run.
    fn payload(&self, run: &[(usize, FrameAddress)]) -> usize {
        run.iter().map(|&(_, a)| self.mem.frame(a).len()).sum()
    }

    /// Words of every run's FAR write and FDRI packet.
    fn body(&self) -> usize {
        self.iter()
            .map(|run| {
                let len = self.payload(run);
                2 + header_len(len) + len
            })
            .sum()
    }
}

/// Generates a partial bitstream carrying the **complete** contents of the
/// given frames (taken from `mem`). Frames are grouped into runs that are
/// consecutive in device order, each run emitted as one FAR + FDRI pair,
/// and the stream is written into one buffer of its exact length.
pub fn partial_bitstream(mem: &ConfigMemory, frames: &[FrameAddress], idcode: u32) -> Bitstream {
    let runs = Runs::new(mem, frames);
    let mut stream = StreamWriter::new(idcode, runs.body());
    for run in runs.iter() {
        stream.write(ConfigRegister::Far, &[encode_far(run[0].1)]);
        stream.header(ConfigRegister::Fdri, runs.payload(run));
        for &(_, addr) in run {
            stream.payload(ConfigRegister::Fdri, mem.frame(addr));
        }
    }
    stream.finish()
}

/// The word count of [`partial_bitstream`]`(mem, frames, _)`, from the same
/// run grouping, without building the stream.
pub fn partial_bitstream_len(mem: &ConfigMemory, frames: &[FrameAddress]) -> usize {
    FRAMING_WORDS + Runs::new(mem, frames).body()
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

/// Applies a bitstream to `mem`, enforcing IDCODE and CRC checks.
pub fn apply_bitstream(
    bs: &Bitstream,
    mem: &mut ConfigMemory,
    device_idcode: u32,
) -> Result<ApplyReport, ApplyError> {
    apply_bitstream_faulty(bs, mem, device_idcode, None)
}

/// [`apply_bitstream`] with an optional [`FaultPlan`] corrupting frame
/// payloads at the FDRI → configuration-cell boundary.
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
    let packets = bs.parse().map_err(ApplyError::Parse)?;
    let mut crc = CrcAccumulator::new();
    let mut wcfg = false;
    let mut far_index: Option<usize> = None;
    let mut frames_written = 0usize;

    for p in &packets {
        let Packet::Write { reg, data } = p else {
            continue;
        };
        match reg {
            ConfigRegister::Crc => {
                let found = *data.first().ok_or(ApplyError::PartialFrame)?;
                let expected = crc.value();
                if expected != found {
                    return Err(ApplyError::CrcMismatch { expected, found });
                }
                crc.reset();
            }
            ConfigRegister::Idcode => {
                let found = *data.first().ok_or(ApplyError::PartialFrame)?;
                if found != device_idcode {
                    return Err(ApplyError::IdcodeMismatch {
                        expected: device_idcode,
                        found,
                    });
                }
                for &w in data {
                    crc.absorb(*reg as u8, w);
                }
            }
            ConfigRegister::Cmd => {
                for &w in data {
                    crc.absorb(*reg as u8, w);
                }
                match data.first().copied().and_then(Command::from_word) {
                    Some(Command::Wcfg) => wcfg = true,
                    Some(Command::Rcrc) => crc.reset(),
                    Some(Command::Desync) => break,
                    _ => {}
                }
            }
            ConfigRegister::Far => {
                for &w in data {
                    crc.absorb(*reg as u8, w);
                }
                let raw = *data.first().ok_or(ApplyError::PartialFrame)?;
                let addr = decode_far(raw).ok_or(ApplyError::BadFrameAddress(raw))?;
                far_index = Some(
                    mem.linear_index(addr)
                        .ok_or(ApplyError::BadFrameAddress(raw))?,
                );
            }
            ConfigRegister::Fdri => {
                if !wcfg {
                    return Err(ApplyError::FdriWithoutWcfg);
                }
                for &w in data {
                    crc.absorb(*reg as u8, w);
                }
                let mut idx = far_index.ok_or(ApplyError::NoFrameAddress)?;
                let mut off = 0usize;
                while off < data.len() {
                    let addr = mem.frame_address(idx).ok_or(ApplyError::AddressOverflow)?;
                    let len = mem.frame(addr).len();
                    let Some(words) = data.get(off..off + len) else {
                        return Err(ApplyError::PartialFrame);
                    };
                    let plan = fault.as_deref_mut().filter(|p| p.is_active());
                    // A frame that already holds these words is left
                    // alone, so a frame shared with another memory stays
                    // shared.
                    if plan.is_some() || mem.frame(addr) != words {
                        let frame = mem.frame_mut(addr);
                        frame.copy_from_slice(words);
                        if let Some(plan) = plan {
                            plan.corrupt_frame(frame);
                        }
                    }
                    frames_written += 1;
                    off += len;
                    idx += 1;
                }
                far_index = Some(idx);
            }
            ConfigRegister::Ctl => {
                for &w in data {
                    crc.absorb(*reg as u8, w);
                }
            }
        }
    }
    Ok(ApplyReport {
        frames_written,
        words_total: bs.word_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
