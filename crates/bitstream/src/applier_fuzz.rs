//! Differential fuzz of the streaming [`Applier`] against the
//! parse-then-apply configuration logic it replaced, kept here verbatim
//! as the oracle: the whole stream parsed into packets first, then the
//! packets applied. Compressed transfers go through [`decoded`] on one
//! side and the whole-buffer decoder they replaced on the other.
//!
//! Well-formed streams must agree on everything: frames, frame sharing,
//! the report and the fault plan's counters and generator state. Malformed
//! streams must agree on the error wherever the stream carries a single
//! fault, and nothing may panic. The budget is small in debug builds and
//! larger under `--release`.

use crate::builder::{Applier, ApplyError, ApplyReport};
use crate::compress::{compress_words, decoded, COMPRESSED_MAGIC};
use crate::crc::CrcAccumulator;
use crate::fault::FaultPlan;
use crate::packet::{
    decode_far, encode_far, header_len, Bitstream, Command, ConfigRegister, Packet, ParseError,
    DUMMY_WORD, SYNC_WORD,
};
use crate::{differential_bitstream, full_bitstream, partial_bitstream};
use vp2_fabric::config::{ConfigMemory, FrameAddress, FrameBlock};
use vp2_fabric::coords::{ClbCoord, LutIndex, SliceIndex};
use vp2_fabric::{Device, DeviceKind};
use vp2_sim::SplitMix64;

const ID: u32 = crate::IDCODE_XC2VP7;

/// The packet parser the [`crate::packet::PacketReader`] grammar replaced.
fn oracle_parse(words: &[u32]) -> Result<Vec<Packet>, ParseError> {
    let mut it = words.iter().copied().peekable();
    loop {
        match it.next() {
            Some(DUMMY_WORD) => continue,
            Some(SYNC_WORD) => break,
            _ => return Err(ParseError::NoSync),
        }
    }
    let mut packets = Vec::new();
    while let Some(h) = it.next() {
        let ty = h >> 29;
        if ty == 0b001 {
            let op = (h >> 27) & 0b11;
            if op == 0 {
                packets.push(Packet::Nop);
                continue;
            }
            if op != 0b10 {
                return Err(ParseError::BadHeader(h));
            }
            let reg_addr = ((h >> 13) & 0x1F) as u8;
            let reg =
                ConfigRegister::from_addr(reg_addr).ok_or(ParseError::UnknownRegister(reg_addr))?;
            let mut count = (h & 0x7FF) as usize;
            if count == 0 {
                if let Some(&next) = it.peek() {
                    if next >> 29 == 0b010 {
                        it.next();
                        count = (next & 0x07FF_FFFF) as usize;
                    }
                }
            }
            // Capacity capped at the words left, so a mangled long count
            // cannot ask for half a gigabyte.
            let mut data = Vec::with_capacity(count.min(words.len()));
            for _ in 0..count {
                data.push(it.next().ok_or(ParseError::Truncated)?);
            }
            packets.push(Packet::Write { reg, data });
        } else {
            return Err(ParseError::BadHeader(h));
        }
    }
    Ok(packets)
}

/// The apply path the [`Applier`] replaced: the whole stream parsed, then
/// applied packet by packet.
fn oracle_apply(
    words: &[u32],
    mem: &mut ConfigMemory,
    device_idcode: u32,
    mut fault: Option<&mut FaultPlan>,
) -> Result<ApplyReport, ApplyError> {
    let packets = oracle_parse(words).map_err(ApplyError::Parse)?;
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
        words_total: words.len(),
    })
}

/// The whole-buffer decoder [`decoded`] replaced.
fn oracle_decompress(words: &[u32]) -> Option<Vec<u32>> {
    const TOKEN_LITERAL: u8 = 254;
    const TOKEN_RUN: u8 = 255;
    let (&magic, rest) = words.split_first()?;
    if magic != COMPRESSED_MAGIC || rest.len() < 3 {
        return None;
    }
    let n_decoded = rest[0] as usize;
    let n_tokens = rest[1] as usize;
    let dict_len = rest[2] as usize;
    if dict_len > TOKEN_LITERAL as usize {
        return None;
    }
    let body = &rest[3..];
    let token_words = n_tokens.div_ceil(4);
    if body.len() < dict_len + token_words {
        return None;
    }
    let dict = &body[..dict_len];
    let token_area = &body[dict_len..dict_len + token_words];
    let mut literals = body[dict_len + token_words..].iter();
    let token = |j: usize| ((token_area[j / 4] >> ((3 - j % 4) * 8)) & 0xFF) as u8;

    let mut out = Vec::new();
    let mut j = 0;
    while j < n_tokens {
        match token(j) {
            TOKEN_LITERAL => out.push(*literals.next()?),
            TOKEN_RUN => {
                j += 1;
                if j >= n_tokens {
                    return None;
                }
                let &last = out.last()?;
                for _ in 0..token(j) as usize + 1 {
                    out.push(last);
                }
            }
            idx => out.push(*dict.get(idx as usize)?),
        }
        j += 1;
    }
    if out.len() != n_decoded || literals.next().is_some() {
        return None;
    }
    Some(out)
}

/// One side's outcome: the result, the memory, and the fault plan.
struct Outcome {
    result: Result<ApplyReport, ApplyError>,
    mem: ConfigMemory,
    plan: Option<FaultPlan>,
}

/// The streaming side: every word pushed into an [`Applier`], compressed
/// transfers decoded word by word in front of it.
fn streamed(words: &[u32], start: &ConfigMemory, plan: Option<&FaultPlan>) -> Outcome {
    let mut mem = start.clone();
    let mut plan = plan.cloned();
    let mut applier = Applier::new(ID);
    let result = if words.first() == Some(&COMPRESSED_MAGIC) {
        match decoded(words) {
            Some(decoded) => {
                for w in decoded {
                    applier.push(w, &mut mem, plan.as_mut());
                }
                applier.finish()
            }
            None => Err(ApplyError::Parse(ParseError::Truncated)),
        }
    } else {
        for &w in words {
            applier.push(w, &mut mem, plan.as_mut());
        }
        applier.finish()
    };
    Outcome { result, mem, plan }
}

/// The oracle side.
fn oracle(words: &[u32], start: &ConfigMemory, plan: Option<&FaultPlan>) -> Outcome {
    let mut mem = start.clone();
    let mut plan = plan.cloned();
    let result = if words.first() == Some(&COMPRESSED_MAGIC) {
        match oracle_decompress(words) {
            Some(decoded) => oracle_apply(&decoded, &mut mem, ID, plan.as_mut()),
            None => Err(ApplyError::Parse(ParseError::Truncated)),
        }
    } else {
        oracle_apply(words, &mut mem, ID, plan.as_mut())
    };
    Outcome { result, mem, plan }
}

/// A well-formed stream: both sides agree on everything, including which
/// frames still share the start memory's allocation.
fn assert_identical(what: &str, words: &[u32], start: &ConfigMemory, plan: Option<&FaultPlan>) {
    let result = assert_same_outcome(what, words, start, plan);
    assert!(result.is_ok(), "{what}: oracle rejects {result:?}");
}

/// A stream the oracle's parse accepts: whatever its register writes do,
/// both sides agree on the result, the frames, frame sharing and the
/// fault plan. Returns the result.
fn assert_same_outcome(
    what: &str,
    words: &[u32],
    start: &ConfigMemory,
    plan: Option<&FaultPlan>,
) -> Result<ApplyReport, ApplyError> {
    let (s, o) = (streamed(words, start, plan), oracle(words, start, plan));
    assert_eq!(s.result, o.result, "{what}: result");
    assert_eq!(s.mem, o.mem, "{what}: frames");
    for a in start.frame_addresses() {
        assert_eq!(
            s.mem.shares_frame(start, a),
            o.mem.shares_frame(start, a),
            "{what}: sharing of {a}"
        );
    }
    assert_eq!(
        format!("{:?}", s.plan),
        format!("{:?}", o.plan),
        "{what}: fault plan counters and generator"
    );
    o.result
}

/// A random register-write program that parses: no-ops and writes of 0
/// to 2 words to IDCODE, CMD (any command, unknown ones included), FAR
/// (on or off the device), CTL and CRC, and FDRI payloads of whole
/// frames, a word short or a word over, some past the type-1 count.
fn packet_program(rng: &mut SplitMix64, mem: &ConfigMemory) -> Vec<u32> {
    let frames = mem.frame_count() as u64;
    let far = |rng: &mut SplitMix64| {
        if rng.below(8) == 0 {
            encode_far(FrameAddress {
                block: FrameBlock::Clb {
                    col: 28 + rng.below(50) as u16,
                },
                minor: 0,
            })
        } else {
            encode_far(mem.frame_address(rng.below(frames) as usize).unwrap())
        }
    };
    let commands = [
        Command::Wcfg as u32,
        Command::Rcrc as u32,
        Command::Desync as u32,
        Command::Start as u32,
        Command::Null as u32,
        99,
    ];
    let mut packets = vec![
        Packet::Write {
            reg: ConfigRegister::Idcode,
            data: vec![ID],
        },
        Packet::Write {
            reg: ConfigRegister::Cmd,
            data: vec![Command::Wcfg as u32],
        },
    ];
    for _ in 0..rng.below(12) {
        let short = |rng: &mut SplitMix64, word: &mut dyn FnMut(&mut SplitMix64) -> u32| {
            (0..rng.below(3)).map(|_| word(rng)).collect::<Vec<u32>>()
        };
        packets.push(match rng.below(8) {
            0 => Packet::Nop,
            1 => Packet::Write {
                reg: ConfigRegister::Idcode,
                data: short(rng, &mut |r| if r.below(4) == 0 { !ID } else { ID }),
            },
            2 | 3 => Packet::Write {
                reg: ConfigRegister::Cmd,
                data: short(rng, &mut |r| commands[r.below(6) as usize]),
            },
            4 => Packet::Write {
                reg: ConfigRegister::Far,
                data: short(rng, &mut |r| far(r)),
            },
            5 => Packet::Write {
                reg: ConfigRegister::Ctl,
                data: short(rng, &mut |r| r.next_u32()),
            },
            6 => Packet::Write {
                reg: ConfigRegister::Crc,
                data: short(rng, &mut |r| r.next_u32()),
            },
            _ => {
                let frames = [0, 1, 2, 30][rng.below(4) as usize];
                let len = (frames * 88 + rng.below(3) as usize).saturating_sub(1);
                Packet::Write {
                    reg: ConfigRegister::Fdri,
                    data: (0..len).map(|_| rng.next_u32() & 0xFF).collect(),
                }
            }
        });
    }
    Bitstream::from_packets(&packets).words
}

/// A malformed stream with one fault: the error must be the oracle's.
/// Where the oracle rejects on a register check, both sides made the same
/// writes before it, so the frames agree too. Where the oracle's parse
/// rejects, the oracle wrote nothing but the applier — the streaming
/// contract — wrote every frame ahead of the fault, each whole: a frame
/// holds either its start words or the words `target` gives it.
fn assert_same_error(what: &str, words: &[u32], start: &ConfigMemory, target: &ConfigMemory) {
    let (s, o) = (streamed(words, start, None), oracle(words, start, None));
    assert_eq!(s.result, o.result, "{what}");
    if let Err(ApplyError::Parse(_)) = o.result {
        for a in start.frame_addresses() {
            assert!(
                s.mem.frame_eq(start, a) || s.mem.frame_eq(target, a),
                "{what}: frame {a} holds neither its old nor its new words"
            );
        }
    } else {
        assert_eq!(s.mem, o.mem, "{what}: frames");
    }
}

/// A stream with any number of faults: never a panic; where the oracle
/// accepts, or rejects on a register check, the streaming side agrees
/// exactly; where the oracle's parse rejects, the streaming side rejects
/// too — possibly on a fault earlier in the stream, which it meets first.
fn assert_agrees(what: &str, words: &[u32], start: &ConfigMemory) {
    let (s, o) = (streamed(words, start, None), oracle(words, start, None));
    if let Err(ApplyError::Parse(_)) = o.result {
        assert!(s.result.is_err(), "{what}: {:?}", s.result);
    } else {
        assert_eq!(s.result, o.result, "{what}");
        assert_eq!(s.mem, o.mem, "{what}: frames");
    }
}

fn patterned_memory(rng: &mut SplitMix64) -> ConfigMemory {
    let mut m = ConfigMemory::new(&Device::new(DeviceKind::Xc2vp7));
    for _ in 0..24 {
        let clb = ClbCoord::new(rng.below(28) as u16, rng.below(44) as u16);
        let slice = SliceIndex::new(rng.below(4) as u8);
        m.set_lut(clb, slice, LutIndex::F, rng.next_u32() as u16);
        m.set_routing_word(clb, 1, rng.next_u64());
    }
    m
}

/// A random frame set: unsorted, with repeats, in runs of every length
/// (including FDRI payloads past the type-1 count).
fn frame_set(rng: &mut SplitMix64, all: &[FrameAddress]) -> Vec<FrameAddress> {
    let n = 1 + rng.below(48) as usize;
    let start = rng.below(all.len() as u64) as usize;
    let mut set: Vec<FrameAddress> = (0..n)
        .map(|k| all[(start + k * (1 + rng.below(3) as usize)) % all.len()])
        .collect();
    set.reverse();
    set
}

/// Word offsets at which each packet of a well-formed stream begins, and
/// the FDRI payload spans.
fn packet_layout(words: &[u32]) -> (Vec<usize>, Vec<std::ops::Range<usize>>) {
    let mut at = 2; // dummy, sync
    let mut starts = vec![0, 1, 2];
    let mut fdri = Vec::new();
    for p in oracle_parse(words).expect("well-formed") {
        at += match p {
            Packet::Nop => 1,
            Packet::Write { reg, data } => {
                let head = header_len(data.len());
                if reg == ConfigRegister::Fdri {
                    fdri.push(at + head..at + head + data.len());
                }
                head + data.len()
            }
        };
        starts.push(at);
    }
    (starts, fdri)
}

#[test]
fn streaming_applier_matches_the_parse_then_apply_oracle() {
    let budget = if cfg!(debug_assertions) { 6 } else { 200 };
    let mut rng = SplitMix64::new(0xA991_1E55);
    let blank = ConfigMemory::new(&Device::new(DeviceKind::Xc2vp7));
    let all: Vec<FrameAddress> = blank.frame_addresses().collect();
    // Packet programs rejected and accepted: both kinds must occur.
    let mut programs = [0u32; 2];
    for round in 0..budget {
        let target = patterned_memory(&mut rng);
        let other = patterned_memory(&mut rng);
        let set = frame_set(&mut rng, &all);
        let partial = partial_bitstream(&target, &set, ID).words;
        let diff = differential_bitstream(&other, &target, ID).words;
        let mut streams = vec![
            ("partial", partial.clone()),
            ("differential", diff.clone()),
            ("compressed partial", compress_words(&partial)),
            ("compressed differential", compress_words(&diff)),
        ];
        if round % 3 == 0 {
            let full = full_bitstream(&target, ID).words;
            streams.push(("compressed full", compress_words(&full)));
            streams.push(("full", full));
        }
        let plan = FaultPlan::new(rng.next_u64(), 0.25);
        for (what, words) in &streams {
            for start in [&blank, &other, &target] {
                assert_identical(what, words, start, None);
                assert_identical(what, words, start, Some(&plan));
            }
        }

        // Malformed: truncation at every packet boundary and inside every
        // FDRI payload.
        let (starts, fdri) = packet_layout(&partial);
        for &cut in &starts {
            assert_same_error("cut at a packet", &partial[..cut], &other, &target);
        }
        for span in &fdri {
            let cut = span.start + rng.below(span.len() as u64) as usize;
            assert_same_error("cut inside FDRI", &partial[..cut], &other, &target);
        }
        // A flipped frame word, then a flipped CRC word.
        let span = &fdri[rng.below(fdri.len() as u64) as usize];
        let mut bad = partial.clone();
        bad[span.start + rng.below(span.len() as u64) as usize] ^= 1 << rng.below(32);
        assert_same_error("frame word flipped", &bad, &other, &target);
        assert!(matches!(
            streamed(&bad, &other, None).result,
            Err(ApplyError::CrcMismatch { .. })
        ));
        let mut bad = partial.clone();
        let crc_at = starts[starts.len() - 4] + 1;
        bad[crc_at] ^= 1;
        assert_same_error("CRC word flipped", &bad, &other, &target);
        // The wrong device.
        let foreign = partial_bitstream(&target, &set, crate::IDCODE_XC2VP30).words;
        assert_same_error("wrong IDCODE", &foreign, &other, &target);
        let s = streamed(&foreign, &other, None);
        assert!(matches!(s.result, Err(ApplyError::IdcodeMismatch { .. })));
        assert!(
            all.iter().all(|&a| s.mem.shares_frame(&other, a)),
            "no frame after a latched error is applied"
        );
        // A FAR outside the device: the first FAR rewritten (the packet
        // after the three prologue writes).
        let far_at = starts[5] + 1;
        assert!(decode_far(partial[far_at]).is_some());
        let mut bad = partial.clone();
        bad[far_at] = encode_far(FrameAddress {
            block: FrameBlock::Clb {
                col: 28 + rng.below(100) as u16,
            },
            minor: 0,
        });
        assert_same_error("FAR off the device", &bad, &other, &target);
        // FDRI before WCFG: the WCFG command (the third prologue write)
        // turned into a no-op command.
        let wcfg_at = starts[4] + 1;
        assert_eq!(partial[wcfg_at], Command::Wcfg as u32);
        let mut bad = partial.clone();
        bad[wcfg_at] = Command::Null as u32;
        assert_same_error("FDRI before WCFG", &bad, &other, &target);
        assert_eq!(
            streamed(&bad, &other, None).result,
            Err(ApplyError::FdriWithoutWcfg)
        );
        // A damaged compressed tail: cut short, or its last word flipped.
        let packed = compress_words(&partial);
        assert_same_error(
            "compressed tail cut",
            &packed[..packed.len() - 1],
            &other,
            &target,
        );
        let mut bad = packed.clone();
        *bad.last_mut().unwrap() ^= 1 << rng.below(32);
        assert_agrees("compressed tail flipped", &bad, &other);

        // Random register-write programs: every one parses, so the two
        // sides must agree on everything, errors included.
        for _ in 0..16 {
            let program = packet_program(&mut rng, &blank);
            let result = assert_same_outcome("packet program", &program, &other, None);
            programs[usize::from(result.is_ok())] += 1;
            let _ = assert_same_outcome("packet program", &program, &other, Some(&plan));
        }

        // Random damage anywhere.
        for _ in 0..8 {
            let mut bad = partial.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bad.len() as u64) as usize;
                bad[at] = match rng.below(3) {
                    0 => bad[at] ^ (1 << rng.below(32)),
                    1 => rng.next_u32(),
                    _ => bad[at].wrapping_add(1),
                };
            }
            if rng.below(2) == 0 {
                bad.truncate(rng.below(bad.len() as u64) as usize);
            }
            assert_agrees("random damage", &bad, &other);
        }
    }
    assert!(programs.iter().all(|&n| n > 0), "{programs:?}");
}
