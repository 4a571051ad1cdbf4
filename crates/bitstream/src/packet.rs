//! Packetised bitstream format.
//!
//! A bitstream is a stream of 32-bit words: dummy padding, a sync word, a
//! sequence of type-1/type-2 register-write packets, and a desync at the
//! end. The subset of configuration registers needed for (re)configuration
//! is modelled; the frame data register (FDRI) carries frame payloads to the
//! address held in the frame address register (FAR), which auto-increments
//! across frame boundaries exactly like the silicon.

use vp2_fabric::config::{FrameAddress, FrameBlock};

/// The synchronisation word that starts configuration (same value as the
/// real device family).
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// Dummy/pad word.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;

/// Configuration registers (5-bit address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ConfigRegister {
    /// CRC check register.
    Crc = 0,
    /// Frame address register.
    Far = 1,
    /// Frame data input register.
    Fdri = 2,
    /// Command register.
    Cmd = 4,
    /// Control register.
    Ctl = 5,
    /// Device IDCODE check register.
    Idcode = 6,
}

impl ConfigRegister {
    /// Decodes a 5-bit register address.
    pub fn from_addr(a: u8) -> Option<Self> {
        Some(match a {
            0 => ConfigRegister::Crc,
            1 => ConfigRegister::Far,
            2 => ConfigRegister::Fdri,
            4 => ConfigRegister::Cmd,
            5 => ConfigRegister::Ctl,
            6 => ConfigRegister::Idcode,
            _ => return None,
        })
    }
}

/// Command-register values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Command {
    /// No operation.
    Null = 0,
    /// Write configuration data (enables FDRI → fabric).
    Wcfg = 1,
    /// Start-up sequence.
    Start = 5,
    /// Reset the CRC accumulator.
    Rcrc = 7,
    /// Desynchronise (end of stream).
    Desync = 13,
}

impl Command {
    /// Decodes a command word.
    pub fn from_word(w: u32) -> Option<Self> {
        Some(match w {
            0 => Command::Null,
            1 => Command::Wcfg,
            5 => Command::Start,
            7 => Command::Rcrc,
            13 => Command::Desync,
            _ => return None,
        })
    }
}

/// One parsed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Pad/no-op word.
    Nop,
    /// Register write with payload.
    Write {
        /// Target register.
        reg: ConfigRegister,
        /// Payload words.
        data: Vec<u32>,
    },
}

/// Encodes a [`FrameAddress`] into a 32-bit FAR value:
/// bits `[26:25]` block type, `[24:8]` major (column), `[7:0]` minor.
pub fn encode_far(addr: FrameAddress) -> u32 {
    let (bt, major) = match addr.block {
        FrameBlock::Clb { col } => (0u32, u32::from(col)),
        FrameBlock::BramInterconnect { col } => (1, u32::from(col)),
        FrameBlock::BramContent { col } => (2, u32::from(col)),
    };
    (bt << 25) | (major << 8) | u32::from(addr.minor as u8)
}

/// Decodes a FAR value back into a [`FrameAddress`].
pub fn decode_far(far: u32) -> Option<FrameAddress> {
    let bt = (far >> 25) & 0b11;
    let major = ((far >> 8) & 0x1_FFFF) as u16;
    let minor = (far & 0xFF) as u16;
    let block = match bt {
        0 => FrameBlock::Clb { col: major },
        1 => FrameBlock::BramInterconnect { col: major },
        2 => FrameBlock::BramContent { col: major },
        _ => return None,
    };
    Some(FrameAddress { block, minor })
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Stream ended before the sync word.
    NoSync,
    /// Malformed packet header.
    BadHeader(u32),
    /// Unknown register address.
    UnknownRegister(u8),
    /// Stream ended inside a packet payload.
    Truncated,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::NoSync => write!(f, "no sync word found"),
            ParseError::BadHeader(w) => write!(f, "malformed packet header {w:#010x}"),
            ParseError::UnknownRegister(r) => write!(f, "unknown config register {r}"),
            ParseError::Truncated => write!(f, "stream truncated mid-packet"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A serialised bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Raw 32-bit words (dummy + sync + packets).
    pub words: Vec<u32>,
}

const TYPE1: u32 = 0b001 << 29;
const TYPE2: u32 = 0b010 << 29;
const OP_WRITE: u32 = 0b10 << 27;
/// Max payload expressible in a type-1 header.
const TYPE1_MAX: usize = 0x7FF;

/// Header words of a register write carrying `len` payload words.
pub(crate) fn header_len(len: usize) -> usize {
    if len <= TYPE1_MAX {
        1
    } else {
        2
    }
}

/// The header of a register write carrying `len` payload words: one
/// type-1 header, or, past the type-1 count, a zero-count type-1 header
/// and a type-2 header with the long count (the FDRI long-write idiom).
/// Returns the words and how many of them the header takes.
pub(crate) fn write_header(reg: ConfigRegister, len: usize) -> ([u32; 2], usize) {
    let type1 = TYPE1 | OP_WRITE | ((u32::from(reg as u8) & 0x1F) << 13);
    if len <= TYPE1_MAX {
        ([type1 | len as u32, 0], 1)
    } else {
        ([type1, TYPE2 | OP_WRITE | (len as u32 & 0x07FF_FFFF)], 2)
    }
}

/// One step of the packet grammar, as [`PacketReader`] hands it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A type-1 no-op packet.
    Nop,
    /// The header of a register write to this register is complete; its
    /// payload words follow.
    Header(ConfigRegister),
    /// One payload word of the write whose header came last.
    Word(u32),
    /// The write whose header came last has delivered its whole payload.
    End,
}

/// Where the packet grammar stands between two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    /// Skipping dummy words, looking for the sync word.
    Sync,
    /// Expecting a packet header.
    Header,
    /// A zero-count type-1 write came last: a type-2 header may follow
    /// with the long count.
    LongCount(ConfigRegister),
    /// Inside a write's payload, with this many words still to come.
    Payload(usize),
}

/// The packet grammar, one word at a time: the sync search, then type-1
/// and type-2 headers and their payloads. Every consumer of a word
/// stream goes through it — [`Bitstream::parse`] and the configuration
/// logic's applier ([`crate::Applier`]) alike — so there is one grammar.
///
/// Each word hands up to four [`Token`]s to a sink: a zero-count type-1
/// write is only complete once the next word shows whether a type-2 long
/// count follows, so that word can end one write and begin another. A grammar error comes back as an `Err` of
/// the sink's error type; after one, the reader's state is unspecified.
#[derive(Debug, Clone)]
pub struct PacketReader {
    state: ReaderState,
}

impl Default for PacketReader {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketReader {
    /// A reader at the start of a stream (before the sync word).
    pub fn new() -> Self {
        PacketReader {
            state: ReaderState::Sync,
        }
    }

    /// Takes one word, handing every token it completes to `sink`.
    #[inline]
    pub fn push<E: From<ParseError>>(
        &mut self,
        word: u32,
        sink: &mut impl FnMut(Token) -> Result<(), E>,
    ) -> Result<(), E> {
        match self.state {
            ReaderState::Payload(left) => {
                sink(Token::Word(word))?;
                if left == 1 {
                    self.state = ReaderState::Header;
                    sink(Token::End)?;
                } else {
                    self.state = ReaderState::Payload(left - 1);
                }
                Ok(())
            }
            ReaderState::Header => self.header(word, sink),
            ReaderState::LongCount(reg) => {
                if word >> 29 == 0b010 {
                    let count = (word & 0x07FF_FFFF) as usize;
                    self.state = ReaderState::Header;
                    return self.begin(reg, count, sink);
                }
                // No long count: the zero-count write stands alone and
                // this word is the next header.
                self.state = ReaderState::Header;
                self.begin(reg, 0, sink)?;
                self.header(word, sink)
            }
            ReaderState::Sync => match word {
                DUMMY_WORD => Ok(()),
                SYNC_WORD => {
                    self.state = ReaderState::Header;
                    Ok(())
                }
                _ => Err(ParseError::NoSync.into()),
            },
        }
    }

    /// Ends the stream: completes a trailing zero-count write, rejects a
    /// stream with no sync word or one that stops inside a payload, and
    /// rewinds the reader for the next stream.
    pub fn finish<E: From<ParseError>>(
        &mut self,
        sink: &mut impl FnMut(Token) -> Result<(), E>,
    ) -> Result<(), E> {
        match std::mem::replace(&mut self.state, ReaderState::Sync) {
            ReaderState::Sync => Err(ParseError::NoSync.into()),
            ReaderState::Header => Ok(()),
            ReaderState::LongCount(reg) => self.begin(reg, 0, sink),
            ReaderState::Payload(_) => Err(ParseError::Truncated.into()),
        }
    }

    /// A packet header word.
    fn header<E: From<ParseError>>(
        &mut self,
        h: u32,
        sink: &mut impl FnMut(Token) -> Result<(), E>,
    ) -> Result<(), E> {
        if h >> 29 != 0b001 {
            return Err(ParseError::BadHeader(h).into());
        }
        let op = (h >> 27) & 0b11;
        if op == 0 {
            return sink(Token::Nop);
        }
        if op != 0b10 {
            return Err(ParseError::BadHeader(h).into());
        }
        let reg_addr = ((h >> 13) & 0x1F) as u8;
        let reg =
            ConfigRegister::from_addr(reg_addr).ok_or(ParseError::UnknownRegister(reg_addr))?;
        match (h & 0x7FF) as usize {
            0 => {
                self.state = ReaderState::LongCount(reg);
                Ok(())
            }
            count => self.begin(reg, count, sink),
        }
    }

    /// A register write whose count is known.
    fn begin<E: From<ParseError>>(
        &mut self,
        reg: ConfigRegister,
        count: usize,
        sink: &mut impl FnMut(Token) -> Result<(), E>,
    ) -> Result<(), E> {
        sink(Token::Header(reg))?;
        if count == 0 {
            sink(Token::End)
        } else {
            self.state = ReaderState::Payload(count);
            Ok(())
        }
    }
}

impl Bitstream {
    /// Assembles a bitstream from packets (adds dummy + sync framing) into
    /// one buffer of the stream's exact length.
    pub fn from_packets(packets: &[Packet]) -> Self {
        let len = 2 + packets
            .iter()
            .map(|p| match p {
                Packet::Nop => 1,
                Packet::Write { data, .. } => header_len(data.len()) + data.len(),
            })
            .sum::<usize>();
        let mut words = Vec::with_capacity(len);
        words.extend_from_slice(&[DUMMY_WORD, SYNC_WORD]);
        for p in packets {
            match p {
                Packet::Nop => words.push(TYPE1), // type-1 op=00 count=0
                Packet::Write { reg, data } => {
                    let (header, n) = write_header(*reg, data.len());
                    words.extend_from_slice(&header[..n]);
                    words.extend_from_slice(data);
                }
            }
        }
        Bitstream { words }
    }

    /// Parses the word stream back into packets, through the same
    /// [`PacketReader`] grammar the configuration logic applies streams
    /// with.
    pub fn parse(&self) -> Result<Vec<Packet>, ParseError> {
        let mut packets = Vec::new();
        let mut sink = |token: Token| {
            match token {
                Token::Nop => packets.push(Packet::Nop),
                Token::Header(reg) => packets.push(Packet::Write {
                    reg,
                    data: Vec::new(),
                }),
                Token::Word(w) => {
                    if let Some(Packet::Write { data, .. }) = packets.last_mut() {
                        data.push(w);
                    }
                }
                Token::End => {}
            }
            Ok::<(), ParseError>(())
        };
        let mut reader = PacketReader::new();
        for &w in &self.words {
            reader.push(w, &mut sink)?;
        }
        reader.finish(&mut sink)?;
        Ok(packets)
    }

    /// Total stream length in words (what the ICAP must shift in — the
    /// quantity that determines reconfiguration time).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Stream size in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_roundtrip() {
        for addr in [
            FrameAddress {
                block: FrameBlock::Clb { col: 0 },
                minor: 0,
            },
            FrameAddress {
                block: FrameBlock::Clb { col: 27 },
                minor: 21,
            },
            FrameAddress {
                block: FrameBlock::BramInterconnect { col: 3 },
                minor: 2,
            },
            FrameAddress {
                block: FrameBlock::BramContent { col: 7 },
                minor: 63,
            },
        ] {
            assert_eq!(decode_far(encode_far(addr)), Some(addr));
        }
    }

    #[test]
    fn decode_far_rejects_bad_block_type() {
        assert_eq!(decode_far(0b11 << 25), None);
    }

    #[test]
    fn packets_roundtrip_short() {
        let pkts = vec![
            Packet::Write {
                reg: ConfigRegister::Idcode,
                data: vec![0x0124_A093],
            },
            Packet::Nop,
            Packet::Write {
                reg: ConfigRegister::Cmd,
                data: vec![Command::Wcfg as u32],
            },
            Packet::Write {
                reg: ConfigRegister::Far,
                data: vec![encode_far(FrameAddress {
                    block: FrameBlock::Clb { col: 5 },
                    minor: 3,
                })],
            },
        ];
        let bs = Bitstream::from_packets(&pkts);
        assert_eq!(bs.parse().unwrap(), pkts);
    }

    #[test]
    fn packets_roundtrip_long_fdri() {
        let data: Vec<u32> = (0..5000).collect();
        let pkts = vec![Packet::Write {
            reg: ConfigRegister::Fdri,
            data,
        }];
        let bs = Bitstream::from_packets(&pkts);
        let parsed = bs.parse().unwrap();
        assert_eq!(parsed, pkts);
        // Long write used a type-2 header.
        assert!(bs.words.iter().any(|&w| w >> 29 == 0b010));
        // Sized up front: the buffer never grew past the stream.
        assert_eq!(bs.words.capacity(), bs.word_count());
    }

    #[test]
    fn missing_sync_detected() {
        let bs = Bitstream {
            words: vec![DUMMY_WORD, 0x1234_5678],
        };
        assert_eq!(bs.parse(), Err(ParseError::NoSync));
    }

    #[test]
    fn truncated_payload_detected() {
        let mut bs = Bitstream::from_packets(&[Packet::Write {
            reg: ConfigRegister::Fdri,
            data: vec![1, 2, 3, 4],
        }]);
        bs.words.truncate(bs.words.len() - 2);
        assert_eq!(bs.parse(), Err(ParseError::Truncated));
    }

    #[test]
    fn unknown_register_detected() {
        // Hand-craft a write to register 9 (unassigned).
        let h = TYPE1 | OP_WRITE | (9 << 13) | 1;
        let bs = Bitstream {
            words: vec![DUMMY_WORD, SYNC_WORD, h, 0],
        };
        assert_eq!(bs.parse(), Err(ParseError::UnknownRegister(9)));
    }

    #[test]
    fn sizes() {
        let bs = Bitstream::from_packets(&[Packet::Nop]);
        assert_eq!(bs.word_count(), 3);
        assert_eq!(bs.byte_size(), 12);
    }

    #[test]
    fn command_roundtrip() {
        for c in [
            Command::Null,
            Command::Wcfg,
            Command::Start,
            Command::Rcrc,
            Command::Desync,
        ] {
            assert_eq!(Command::from_word(c as u32), Some(c));
        }
        assert_eq!(Command::from_word(99), None);
    }
}
