//! Configuration memory: frames, frame addressing and the bit-level encoding
//! of placed logic.
//!
//! Virtex-II Pro devices are configured by **frames**: a frame is the atomic
//! unit of (re)configuration and controls a full-height column of resources.
//! This module reproduces that structure:
//!
//! * every CLB column owns [`MINORS_PER_CLB_COL`] frames (minor addresses);
//! * every BRAM column owns [`MINORS_PER_BRAM_CONTENT`] content frames plus
//!   [`MINORS_PER_BRAM_INTERCONNECT`] interconnect frames;
//! * a CLB frame stores two 32-bit words per CLB **row**, so a frame touches
//!   every row of the device — the architectural fact behind the paper's
//!   "must not disturb the circuits below or above" requirement.
//!
//! The encoding of logic into frame bits is deterministic and documented on
//! each accessor, which makes differential bitstreams, readback and BitLinker
//! merging real bit-level operations.
//!
//! Frames are shared, copy-on-write `Arc<[u32]>` payloads: a blank memory
//! holds one zero frame per frame length, a clone copies only pointers,
//! and [`ConfigMemory::frame_mut`] copies a frame the first time a shared
//! one is written. A configuration derived from a base (BitLinker's
//! merged states, a differential target) therefore owns only the frames
//! that were written after the clone, and comparisons
//! ([`ConfigMemory::diff`], [`ConfigMemory::mismatched_frames`]) settle
//! shared frames by pointer before comparing words.

use crate::coords::{ClbCoord, FfIndex, LutIndex, SliceIndex};
use crate::device::Device;
use std::fmt;
use std::sync::Arc;

/// Frames (minor addresses) per CLB column.
///
/// The real Virtex-II Pro uses 22; we keep that number. Minors 0–1 hold LUT
/// truth tables, minor 2 holds FF/carry configuration, minors 3–21 hold the
/// routing summary words.
pub const MINORS_PER_CLB_COL: u16 = 22;
/// Content frames per BRAM column (64, as on the real device family).
pub const MINORS_PER_BRAM_CONTENT: u16 = 64;
/// Interconnect frames per BRAM column.
pub const MINORS_PER_BRAM_INTERCONNECT: u16 = 4;
/// 32-bit words per CLB row in a CLB (or BRAM-interconnect) frame.
pub const WORDS_PER_CLB_ROW: usize = 2;
/// 32-bit words per BRAM block in a BRAM content frame
/// (18 kbit / 64 frames = 288 bits = 9 words).
pub const WORDS_PER_BRAM_BLOCK: usize = 9;

/// Which column family a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameBlock {
    /// CLB column `col` (0-based, left to right).
    Clb { col: u16 },
    /// BRAM interconnect column `col`.
    BramInterconnect { col: u16 },
    /// BRAM content column `col`.
    BramContent { col: u16 },
}

/// Full frame address: block (major) + minor.
///
/// Mirrors the Virtex-II FAR register's block-type / major / minor split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameAddress {
    /// Column family and index.
    pub block: FrameBlock,
    /// Frame index within the column.
    pub minor: u16,
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            FrameBlock::Clb { col } => write!(f, "CLB:c{}:m{}", col, self.minor),
            FrameBlock::BramInterconnect { col } => write!(f, "BRI:c{}:m{}", col, self.minor),
            FrameBlock::BramContent { col } => write!(f, "BRC:c{}:m{}", col, self.minor),
        }
    }
}

/// The device's entire configuration memory.
///
/// Cloning shares every frame (see the module documentation), so tests and
/// the BitLinker snapshot and diff states for the cost of a pointer per
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigMemory {
    rows: u16,
    clb_cols: u16,
    bram_cols: u16,
    brams_per_col: u16,
    /// Frames laid out by [`Self::linear_index`], shared copy-on-write.
    frames: Vec<Arc<[u32]>>,
}

impl ConfigMemory {
    /// Blank configuration memory for a device: every frame of one length
    /// shares one zero frame.
    pub fn new(dev: &Device) -> Self {
        let clb_zero: Arc<[u32]> = vec![0; dev.rows as usize * WORDS_PER_CLB_ROW].into();
        let bram_zero: Arc<[u32]> =
            vec![0; dev.brams_per_col as usize * WORDS_PER_BRAM_BLOCK].into();
        let clb_frames = (dev.clb_cols as usize * MINORS_PER_CLB_COL as usize)
            + dev.bram_cols as usize * MINORS_PER_BRAM_INTERCONNECT as usize;
        let bram_frames = dev.bram_cols as usize * MINORS_PER_BRAM_CONTENT as usize;
        let mut frames = vec![clb_zero; clb_frames];
        frames.resize(clb_frames + bram_frames, bram_zero);
        ConfigMemory {
            rows: dev.rows,
            clb_cols: dev.clb_cols,
            bram_cols: dev.bram_cols,
            brams_per_col: dev.brams_per_col,
            frames,
        }
    }

    /// Number of CLB rows this memory was built for.
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of CLB columns this memory was built for.
    pub fn clb_cols(&self) -> u16 {
        self.clb_cols
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Validates an address and maps it to its index in device order (the
    /// order FAR auto-increment walks and [`Self::frame_addresses`] yields).
    pub fn linear_index(&self, addr: FrameAddress) -> Option<usize> {
        let clb_frames = self.clb_cols as usize * MINORS_PER_CLB_COL as usize;
        let bri_frames = self.bram_cols as usize * MINORS_PER_BRAM_INTERCONNECT as usize;
        match addr.block {
            FrameBlock::Clb { col } => (col < self.clb_cols && addr.minor < MINORS_PER_CLB_COL)
                .then(|| col as usize * MINORS_PER_CLB_COL as usize + addr.minor as usize),
            FrameBlock::BramInterconnect { col } => {
                (col < self.bram_cols && addr.minor < MINORS_PER_BRAM_INTERCONNECT).then(|| {
                    clb_frames
                        + col as usize * MINORS_PER_BRAM_INTERCONNECT as usize
                        + addr.minor as usize
                })
            }
            FrameBlock::BramContent { col } => {
                (col < self.bram_cols && addr.minor < MINORS_PER_BRAM_CONTENT).then(|| {
                    clb_frames
                        + bri_frames
                        + col as usize * MINORS_PER_BRAM_CONTENT as usize
                        + addr.minor as usize
                })
            }
        }
    }

    /// The inverse of [`Self::linear_index`]: the address of the frame at
    /// `index` in device order, or `None` past the last frame.
    pub fn frame_address(&self, index: usize) -> Option<FrameAddress> {
        let clb_frames = self.clb_cols as usize * MINORS_PER_CLB_COL as usize;
        let bri_frames = self.bram_cols as usize * MINORS_PER_BRAM_INTERCONNECT as usize;
        let split = |i: usize, minors: u16| {
            let (col, minor) = (i / minors as usize, i % minors as usize);
            (col as u16, minor as u16)
        };
        let (block, minor) = if index < clb_frames {
            let (col, minor) = split(index, MINORS_PER_CLB_COL);
            (FrameBlock::Clb { col }, minor)
        } else if index < clb_frames + bri_frames {
            let (col, minor) = split(index - clb_frames, MINORS_PER_BRAM_INTERCONNECT);
            (FrameBlock::BramInterconnect { col }, minor)
        } else if index < self.frames.len() {
            let (col, minor) = split(index - clb_frames - bri_frames, MINORS_PER_BRAM_CONTENT);
            (FrameBlock::BramContent { col }, minor)
        } else {
            return None;
        };
        Some(FrameAddress { block, minor })
    }

    /// Iterates over every frame address in linear (device) order.
    pub fn frame_addresses(&self) -> impl Iterator<Item = FrameAddress> + '_ {
        (0..self.frames.len()).filter_map(|i| self.frame_address(i))
    }

    /// Index of a valid address.
    ///
    /// # Panics
    /// Panics on an invalid address (model bug, not data dependent).
    fn index(&self, addr: FrameAddress) -> usize {
        self.linear_index(addr)
            .unwrap_or_else(|| panic!("invalid frame address {addr}"))
    }

    /// Reads a frame's words.
    ///
    /// # Panics
    /// Panics on an invalid address (model bug, not data dependent).
    pub fn frame(&self, addr: FrameAddress) -> &[u32] {
        &self.frames[self.index(addr)]
    }

    /// A frame's words, writable in place but not resizable. A frame still
    /// shared with another memory (or with other frames, as blank frames
    /// are) is copied first, so the write reaches this memory only. Every
    /// write to configuration memory goes through it: the ICAP's FDRI
    /// path, the logic encoders below, the BitLinker's region erase and
    /// the upset process.
    ///
    /// # Panics
    /// Panics on an invalid address (model bug, not data dependent).
    pub fn frame_mut(&mut self, addr: FrameAddress) -> &mut [u32] {
        let idx = self.index(addr);
        Arc::make_mut(&mut self.frames[idx])
    }

    /// Does this memory hold the very frame allocation `other` holds at
    /// `addr`? True only while neither side has written the frame since
    /// one was cloned from the other (or both from a common base).
    pub fn shares_frame(&self, other: &ConfigMemory, addr: FrameAddress) -> bool {
        let idx = self.index(addr);
        Arc::ptr_eq(&self.frames[idx], &other.frames[idx])
    }

    /// Do both memories hold the same words at `addr`? A shared frame
    /// answers by pointer, without reading a word.
    pub fn frame_eq(&self, other: &ConfigMemory, addr: FrameAddress) -> bool {
        self.same_at(other, self.index(addr))
    }

    fn same_at(&self, other: &ConfigMemory, idx: usize) -> bool {
        let (a, b) = (&self.frames[idx], &other.frames[idx]);
        Arc::ptr_eq(a, b) || a[..] == b[..]
    }

    /// Readback verification over an explicit frame set: addresses in
    /// `frames` whose live contents differ from `expected`.
    ///
    /// This is the post-load check the paper performs through ICAP
    /// readback — the returned addresses are exactly the frames a targeted
    /// repair (a partial bitstream of only those frames) must re-write.
    pub fn mismatched_frames(
        &self,
        expected: &ConfigMemory,
        frames: &[FrameAddress],
    ) -> Vec<FrameAddress> {
        frames
            .iter()
            .copied()
            .filter(|&a| !self.frame_eq(expected, a))
            .collect()
    }

    /// Addresses of every frame whose contents differ from `other`.
    ///
    /// This is exactly the set a *differential* partial bitstream captures.
    pub fn diff(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        assert_eq!(
            self.frame_count(),
            other.frame_count(),
            "cannot diff different devices"
        );
        (0..self.frames.len())
            .filter(|&i| !self.same_at(other, i))
            .filter_map(|i| self.frame_address(i))
            .collect()
    }

    // ------------------------------------------------------------------
    // Logic encoding. Layout (per CLB row `r`, words `2r` and `2r+1`):
    //   minor 0: word0 = slice0.F | slice0.G<<16 ; word1 = slice1.F|G
    //   minor 1: word0 = slice2.F | slice2.G<<16 ; word1 = slice3.F|G
    //   minor 2: word0 = per-slice FF config nibbles ; word1 = carry bits
    //   minors 3..22: routing summary words (two 32-bit halves of a u64)
    // ------------------------------------------------------------------

    fn lut_site(clb: ClbCoord, slice: SliceIndex) -> (FrameAddress, usize) {
        let minor = u16::from(slice.0 / 2);
        let word_in_row = usize::from(slice.0 % 2);
        (
            FrameAddress {
                block: FrameBlock::Clb { col: clb.col },
                minor,
            },
            clb.row as usize * WORDS_PER_CLB_ROW + word_in_row,
        )
    }

    /// Sets a LUT truth table (16 bits; bit *i* is the output for input
    /// pattern *i*).
    pub fn set_lut(&mut self, clb: ClbCoord, slice: SliceIndex, lut: LutIndex, truth: u16) {
        assert!(clb.row < self.rows, "row out of range");
        let (addr, word) = Self::lut_site(clb, slice);
        let w = &mut self.frame_mut(addr)[word];
        let shift = 16 * u32::from(lut.0);
        *w = (*w & !(0xFFFFu32 << shift)) | (u32::from(truth) << shift);
    }

    /// Reads a LUT truth table back (the readback path).
    pub fn lut(&self, clb: ClbCoord, slice: SliceIndex, lut: LutIndex) -> u16 {
        let (addr, word) = Self::lut_site(clb, slice);
        let w = self.frame(addr)[word];
        ((w >> (16 * u32::from(lut.0))) & 0xFFFF) as u16
    }

    /// Per-FF configuration nibble: bit0 = FF in use, bit1 = init value,
    /// bit2 = clock-enable routed, bit3 = synchronous reset.
    pub fn set_ff_config(&mut self, clb: ClbCoord, slice: SliceIndex, ff: FfIndex, nibble: u8) {
        assert!(nibble < 16, "FF config is a nibble");
        let addr = FrameAddress {
            block: FrameBlock::Clb { col: clb.col },
            minor: 2,
        };
        let word = clb.row as usize * WORDS_PER_CLB_ROW;
        let shift = 8 * u32::from(slice.0) + 4 * u32::from(ff.0);
        let w = &mut self.frame_mut(addr)[word];
        *w = (*w & !(0xFu32 << shift)) | (u32::from(nibble) << shift);
    }

    /// Reads a FF configuration nibble.
    pub fn ff_config(&self, clb: ClbCoord, slice: SliceIndex, ff: FfIndex) -> u8 {
        let addr = FrameAddress {
            block: FrameBlock::Clb { col: clb.col },
            minor: 2,
        };
        let word = clb.row as usize * WORDS_PER_CLB_ROW;
        let shift = 8 * u32::from(slice.0) + 4 * u32::from(ff.0);
        ((self.frame(addr)[word] >> shift) & 0xF) as u8
    }

    /// Writes one routing-summary word for a CLB. `channel` selects one of
    /// the 19 routing minors (0..19 → minor 3..21). The u64 value is a
    /// deterministic digest of the nets routed through this CLB computed by
    /// the netlist crate; distinct circuits therefore produce distinct frame
    /// bits, which is what gives differential bitstreams realistic sizes.
    pub fn set_routing_word(&mut self, clb: ClbCoord, channel: u16, value: u64) {
        assert!(channel < MINORS_PER_CLB_COL - 3, "routing channel range");
        let addr = FrameAddress {
            block: FrameBlock::Clb { col: clb.col },
            minor: 3 + channel,
        };
        let base = clb.row as usize * WORDS_PER_CLB_ROW;
        let frame = self.frame_mut(addr);
        frame[base] = value as u32;
        frame[base + 1] = (value >> 32) as u32;
    }

    /// Reads one routing-summary word.
    pub fn routing_word(&self, clb: ClbCoord, channel: u16) -> u64 {
        assert!(channel < MINORS_PER_CLB_COL - 3, "routing channel range");
        let addr = FrameAddress {
            block: FrameBlock::Clb { col: clb.col },
            minor: 3 + channel,
        };
        let base = clb.row as usize * WORDS_PER_CLB_ROW;
        let frame = self.frame(addr);
        u64::from(frame[base]) | (u64::from(frame[base + 1]) << 32)
    }

    /// Reads 288 bits of BRAM content.
    pub fn bram_chunk(&self, col: u16, block: u16, minor: u16) -> [u32; 9] {
        assert!(block < self.brams_per_col, "BRAM block out of range");
        let addr = FrameAddress {
            block: FrameBlock::BramContent { col },
            minor,
        };
        let base = block as usize * WORDS_PER_BRAM_BLOCK;
        let mut out = [0u32; 9];
        out.copy_from_slice(&self.frame(addr)[base..base + 9]);
        out
    }

    /// Word range `[start, end)` of a CLB frame that belongs to the given
    /// row span. Used by BitLinker to check that a partial configuration
    /// leaves rows outside the dynamic region untouched.
    pub fn row_word_range(rows: std::ops::Range<u16>) -> std::ops::Range<usize> {
        rows.start as usize * WORDS_PER_CLB_ROW..rows.end as usize * WORDS_PER_CLB_ROW
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceKind};

    fn mem() -> ConfigMemory {
        ConfigMemory::new(&Device::new(DeviceKind::Xc2vp7))
    }

    #[test]
    fn frame_counts() {
        let m = mem();
        // 28 CLB cols * 22 + 4 BRAM cols * (4 + 64)
        assert_eq!(m.frame_count(), 28 * 22 + 4 * (4 + 64));
        assert_eq!(m.frame_addresses().count(), m.frame_count());
    }

    #[test]
    fn frames_start_blank() {
        let m = mem();
        assert!(m
            .frame_addresses()
            .all(|a| m.frame(a).iter().all(|&w| w == 0)));
    }

    #[test]
    fn clones_share_frames_until_written() {
        let mut m = mem();
        m.set_lut(ClbCoord::new(1, 1), SliceIndex::new(0), LutIndex::F, 0xF00D);
        let mut c = m.clone();
        assert!(m.frame_addresses().all(|a| c.shares_frame(&m, a)));
        c.set_lut(ClbCoord::new(2, 1), SliceIndex::new(0), LutIndex::F, 1);
        let changed = FrameAddress {
            block: FrameBlock::Clb { col: 2 },
            minor: 0,
        };
        for a in m.frame_addresses() {
            assert_eq!(c.shares_frame(&m, a), a != changed, "{a}");
            assert_eq!(c.frame_eq(&m, a), a != changed, "{a}");
        }
        assert_eq!(
            m.lut(ClbCoord::new(2, 1), SliceIndex::new(0), LutIndex::F),
            0
        );
        // Writing the old words back restores the contents, not the sharing.
        c.set_lut(ClbCoord::new(2, 1), SliceIndex::new(0), LutIndex::F, 0);
        assert!(c.frame_eq(&m, changed) && !c.shares_frame(&m, changed));
        assert!(c.diff(&m).is_empty());
    }

    #[test]
    fn lut_roundtrip_all_sites() {
        let mut m = mem();
        let clb = ClbCoord::new(3, 7);
        for s in 0..4u8 {
            for l in 0..2u8 {
                let val = 0x1000 + u16::from(s) * 16 + u16::from(l);
                m.set_lut(clb, SliceIndex::new(s), LutIndex::new(l), val);
            }
        }
        for s in 0..4u8 {
            for l in 0..2u8 {
                let want = 0x1000 + u16::from(s) * 16 + u16::from(l);
                assert_eq!(m.lut(clb, SliceIndex::new(s), LutIndex::new(l)), want);
            }
        }
    }

    #[test]
    fn lut_write_does_not_disturb_neighbours() {
        let mut m = mem();
        let a = ClbCoord::new(5, 10);
        let b = ClbCoord::new(5, 11); // same column, adjacent row
        m.set_lut(a, SliceIndex::new(0), LutIndex::F, 0xAAAA);
        m.set_lut(b, SliceIndex::new(0), LutIndex::F, 0x5555);
        assert_eq!(m.lut(a, SliceIndex::new(0), LutIndex::F), 0xAAAA);
        assert_eq!(m.lut(b, SliceIndex::new(0), LutIndex::F), 0x5555);
        assert_eq!(m.lut(a, SliceIndex::new(0), LutIndex::G), 0);
    }

    #[test]
    fn lut_write_touches_exactly_one_frame() {
        let mut m = mem();
        let blank = m.clone();
        m.set_lut(ClbCoord::new(2, 0), SliceIndex::new(2), LutIndex::G, 0xF0F0);
        let changed = m.diff(&blank);
        assert_eq!(changed.len(), 1);
        assert_eq!(
            changed[0],
            FrameAddress {
                block: FrameBlock::Clb { col: 2 },
                minor: 1
            }
        );
    }

    #[test]
    fn ff_config_roundtrip() {
        let mut m = mem();
        let clb = ClbCoord::new(0, 43);
        m.set_ff_config(clb, SliceIndex::new(3), FfIndex::new(1), 0b1011);
        assert_eq!(
            m.ff_config(clb, SliceIndex::new(3), FfIndex::new(1)),
            0b1011
        );
        assert_eq!(m.ff_config(clb, SliceIndex::new(3), FfIndex::new(0)), 0);
        assert_eq!(m.ff_config(clb, SliceIndex::new(0), FfIndex::new(1)), 0);
    }

    #[test]
    fn routing_word_roundtrip() {
        let mut m = mem();
        let clb = ClbCoord::new(27, 20);
        m.set_routing_word(clb, 0, 0xDEAD_BEEF_0BAD_F00D);
        m.set_routing_word(clb, 18, 42);
        assert_eq!(m.routing_word(clb, 0), 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(m.routing_word(clb, 18), 42);
        assert_eq!(m.routing_word(clb, 9), 0);
    }

    #[test]
    fn bram_chunk_roundtrip() {
        let mut m = mem();
        let words = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        let addr = FrameAddress {
            block: FrameBlock::BramContent { col: 3 },
            minor: 63,
        };
        let base = 10 * WORDS_PER_BRAM_BLOCK;
        m.frame_mut(addr)[base..base + 9].copy_from_slice(&words);
        assert_eq!(m.bram_chunk(3, 10, 63), words);
        assert_eq!(m.bram_chunk(3, 9, 63), [0; 9]);
    }

    #[test]
    fn diff_detects_exact_frames() {
        let a = mem();
        let mut b = mem();
        b.set_routing_word(ClbCoord::new(4, 4), 2, 99);
        b.set_lut(ClbCoord::new(10, 1), SliceIndex::new(0), LutIndex::F, 1);
        let d = b.diff(&a);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn mismatched_frames_reports_only_watched_differences() {
        let expected = mem();
        let mut live = mem();
        // One corruption inside the watched set, one outside it.
        live.set_lut(ClbCoord::new(2, 5), SliceIndex::new(0), LutIndex::F, 0xDEAD);
        live.set_lut(ClbCoord::new(9, 5), SliceIndex::new(0), LutIndex::F, 0xBEEF);
        let watched: Vec<FrameAddress> = (0..MINORS_PER_CLB_COL)
            .map(|minor| FrameAddress {
                block: FrameBlock::Clb { col: 2 },
                minor,
            })
            .collect();
        let bad = live.mismatched_frames(&expected, &watched);
        assert_eq!(
            bad,
            vec![FrameAddress {
                block: FrameBlock::Clb { col: 2 },
                minor: 0
            }]
        );
        assert!(expected.mismatched_frames(&expected, &watched).is_empty());
    }

    #[test]
    fn whole_frame_write_roundtrip() {
        let mut m = mem();
        let addr = FrameAddress {
            block: FrameBlock::Clb { col: 1 },
            minor: 5,
        };
        let data: Vec<u32> = (0..88).collect(); // 44 rows * 2 words
        m.frame_mut(addr).copy_from_slice(&data);
        assert_eq!(m.frame(addr), &data[..]);
    }

    #[test]
    #[should_panic(expected = "invalid frame address")]
    fn invalid_address_panics() {
        let m = mem();
        m.frame(FrameAddress {
            block: FrameBlock::Clb { col: 99 },
            minor: 0,
        });
    }

    #[test]
    fn frame_address_inverts_linear_index() {
        let m = mem();
        for (i, addr) in m.frame_addresses().enumerate() {
            assert_eq!(m.linear_index(addr), Some(i));
            assert_eq!(m.frame_address(i), Some(addr));
        }
        assert_eq!(m.frame_address(m.frame_count()), None);
    }

    #[test]
    fn row_word_range_maps_rows() {
        assert_eq!(ConfigMemory::row_word_range(0..44), 0..88);
        assert_eq!(ConfigMemory::row_word_range(16..27), 32..54);
    }
}
