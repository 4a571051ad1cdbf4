//! Set-associative cache model (the 405's 16 KB, 2-way, 32-byte-line
//! organisation by default; the data cache is write-back with
//! write-allocate).
//!
//! The cache owns no memory — misses and writebacks go through the
//! [`MemoryPort`](crate::mem::MemoryPort) and the consumed time is returned
//! to the CPU, so a D-cache miss on the 32-bit system is automatically more
//! expensive than on the 64-bit system (slower bus, bridge crossing).
//!
//! # Predecoded instruction cache
//!
//! The instruction cache ([`Cache::instruction`]) keeps the decoded
//! [`Instr`] of each of a line's eight words beside the line's bytes, so a
//! fetch hit costs no `decode`. The invariant that makes this invisible:
//! the decoded copy is written only in the miss path, from the very bytes
//! that fill the line, and it is reachable only while the line is valid, so
//! every invalidation drops both. A word that does not decode is cached as
//! `None` and panics only when it executes. Like the modelled I-cache, the
//! cache is not coherent with memory: code poked into memory while its line
//! is resident stays stale until the line is invalidated
//! (`Machine::load_program` invalidates the whole I-cache).

use crate::isa::{decode, Instr};
use crate::mem::{MemoryPort, LINE_BYTES};
use vp2_sim::SimTime;

/// `log2(LINE_BYTES)`: the offset bits below the set index.
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// Instruction words per line.
const WORDS_PER_LINE: usize = LINE_BYTES / 4;

#[derive(Debug, Clone)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
    data: [u8; LINE_BYTES],
    /// Higher = more recently used.
    lru: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            valid: false,
            dirty: false,
            tag: 0,
            data: [0; LINE_BYTES],
            lru: 0,
        }
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits.
    pub hits: u64,
    /// Misses (fills).
    pub misses: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
}

/// A set-associative write-back cache.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Every line, way `w` of set `s` at index `s * ways + w`.
    lines: Vec<Line>,
    /// The decoded words of each line, indexed like `lines`; empty unless
    /// this is an instruction cache.
    decoded: Vec<[Option<Instr>; WORDS_PER_LINE]>,
    ways: usize,
    set_mask: u32,
    /// `LINE_SHIFT + log2(sets)`: the address bits above the set index.
    tag_shift: u32,
    tick: u64,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `ways` ways and 32-byte lines.
    ///
    /// # Panics
    /// Panics unless `size_bytes` is a power-of-two multiple of
    /// `ways * 32`.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        let lines = size_bytes / LINE_BYTES;
        assert!(lines.is_multiple_of(ways), "line count must divide by ways");
        let nsets = lines / ways;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Cache {
            lines: vec![Line::empty(); lines],
            decoded: Vec::new(),
            ways,
            set_mask: (nsets - 1) as u32,
            tag_shift: LINE_SHIFT + nsets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Builds an instruction cache: [`Cache::new`] plus a decoded copy of
    /// every resident line, read by [`Cache::fetch`].
    pub fn instruction(size_bytes: usize, ways: usize) -> Self {
        let mut cache = Cache::new(size_bytes, ways);
        cache.decoded = vec![[None; WORDS_PER_LINE]; cache.lines.len()];
        cache
    }

    /// The 405's 16 KB 2-way configuration.
    pub fn ppc405() -> Self {
        Cache::new(16 * 1024, 2)
    }

    /// Index of way 0 of the set `addr` maps to.
    #[inline]
    fn set_base(&self, addr: u32) -> usize {
        ((addr >> LINE_SHIFT) & self.set_mask) as usize * self.ways
    }

    #[inline]
    fn line_base(addr: u32) -> u32 {
        addr & !(LINE_BYTES as u32 - 1)
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        self.tick += 1;
        self.lines[i].lru = self.tick;
    }

    /// Index of the valid line holding `addr`, if resident.
    #[inline]
    fn find(&self, addr: u32) -> Option<usize> {
        let base = self.set_base(addr);
        let tag = addr >> self.tag_shift;
        self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|way| base + way)
    }

    /// Ensures the line containing `addr` is resident; returns
    /// `(line index, time_spent)`.
    #[inline]
    fn fill<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        mem: &mut M,
    ) -> (usize, SimTime) {
        if let Some(i) = self.find(addr) {
            self.stats.hits += 1;
            self.touch(i);
            return (i, SimTime::ZERO);
        }
        self.miss(now, addr, mem)
    }

    /// The miss path of [`Cache::fill`]: picks a victim, writes it back if
    /// dirty, and fills it (and its decoded copy) from memory.
    fn miss<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        mem: &mut M,
    ) -> (usize, SimTime) {
        self.stats.misses += 1;
        let base = self.set_base(addr);
        let set = &self.lines[base..base + self.ways];
        // Victim: invalid first, else LRU.
        let way = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("ways > 0")
        });
        let i = base + way;
        let mut spent = SimTime::ZERO;
        // Write back a dirty victim.
        if self.lines[i].valid && self.lines[i].dirty {
            self.stats.writebacks += 1;
            let victim_addr =
                (self.lines[i].tag << self.tag_shift) | (addr & (self.set_mask << LINE_SHIFT));
            spent += mem.write_line(now + spent, victim_addr, &self.lines[i].data);
        }
        let mut buf = [0u8; LINE_BYTES];
        spent += mem.read_line(now + spent, Self::line_base(addr), &mut buf);
        if let Some(decoded) = self.decoded.get_mut(i) {
            *decoded = std::array::from_fn(|w| decode(word_at(&buf, 4 * w)));
        }
        let line = &mut self.lines[i];
        line.valid = true;
        line.dirty = false;
        line.tag = addr >> self.tag_shift;
        line.data = buf;
        self.touch(i);
        (i, spent)
    }

    /// Cached read of `size` ∈ {1,2,4} bytes; returns `(data, time)`.
    #[inline]
    pub fn read<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        size: u8,
        mem: &mut M,
    ) -> (u32, SimTime) {
        let (i, spent) = self.fill(now, addr, mem);
        let off = (addr as usize) & (LINE_BYTES - 1);
        let d = &self.lines[i].data;
        let v = match size {
            1 => u32::from(d[off]),
            2 => u32::from(u16::from_be_bytes(d[off..off + 2].try_into().unwrap())),
            4 => word_at(d, off),
            _ => panic!("bad size {size}"),
        };
        (v, spent)
    }

    /// Cached instruction fetch of the word-aligned `addr` through an
    /// [`instruction`](Cache::instruction) cache. Returns the decoded
    /// instruction, or `Err(word)` if the word does not decode, and the
    /// time spent. Hits, misses and LRU ticks count exactly as for a
    /// 4-byte [`Cache::read`].
    #[inline]
    pub fn fetch<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        mem: &mut M,
    ) -> (Result<Instr, u32>, SimTime) {
        debug_assert!(!self.decoded.is_empty(), "fetch through a data cache");
        let (i, spent) = self.fill(now, addr, mem);
        let w = (addr as usize >> 2) & (WORDS_PER_LINE - 1);
        let instr = self.decoded[i][w].ok_or_else(|| word_at(&self.lines[i].data, 4 * w));
        (instr, spent)
    }

    /// Cached write (write-back, write-allocate); returns time spent.
    #[inline]
    pub fn write<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        size: u8,
        data: u32,
        mem: &mut M,
    ) -> SimTime {
        // A write would leave the line's decoded copy stale.
        assert!(
            self.decoded.is_empty(),
            "write through an instruction cache"
        );
        let (i, spent) = self.fill(now, addr, mem);
        let off = (addr as usize) & (LINE_BYTES - 1);
        let line = &mut self.lines[i];
        match size {
            1 => line.data[off] = data as u8,
            2 => line.data[off..off + 2].copy_from_slice(&(data as u16).to_be_bytes()),
            4 => line.data[off..off + 4].copy_from_slice(&data.to_be_bytes()),
            _ => panic!("bad size {size}"),
        }
        line.dirty = true;
        spent
    }

    /// Flushes (writes back if dirty, then invalidates) the line containing
    /// `addr`; returns time spent. The `dcbf` instruction.
    pub fn flush_line<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        mem: &mut M,
    ) -> SimTime {
        let Some(i) = self.find(addr) else {
            return SimTime::ZERO;
        };
        let mut spent = SimTime::ZERO;
        if self.lines[i].dirty {
            self.stats.writebacks += 1;
            spent += mem.write_line(now, Self::line_base(addr), &self.lines[i].data);
        }
        self.lines[i].valid = false;
        spent
    }

    /// Invalidates (without writeback) the line containing `addr`. The
    /// `dcbi` instruction — used before reading DMA-produced buffers.
    pub fn invalidate_line(&mut self, addr: u32) {
        if let Some(i) = self.find(addr) {
            self.lines[i].valid = false;
        }
    }

    /// Invalidates everything (no writeback).
    pub fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
    }
}

/// The big-endian word at byte offset `off` of a line.
#[inline]
fn word_at(data: &[u8; LINE_BYTES], off: usize) -> u32 {
    u32::from_be_bytes(data[off..off + 4].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FlatMem;

    #[test]
    fn read_hit_after_miss() {
        let mut c = Cache::new(1024, 2);
        let mut m = FlatMem::new(4096);
        m.store_u32(64, 0xDEAD_BEEF);
        let (v, t) = c.read(SimTime::ZERO, 64, 4, &mut m);
        assert_eq!(v, 0xDEAD_BEEF);
        assert_eq!(t, m.line_time, "miss costs a line fill");
        let (v2, t2) = c.read(SimTime::ZERO, 68, 4, &mut m);
        assert_eq!(v2, 0);
        assert_eq!(t2, SimTime::ZERO, "same line: hit");
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn write_back_on_eviction() {
        // 2 sets x 2 ways x 32B = 128B cache: addresses 0, 128, 256 map to
        // set 0; third access evicts the LRU line.
        let mut c = Cache::new(128, 2);
        let mut m = FlatMem::new(4096);
        c.write(SimTime::ZERO, 0, 4, 0x1111_1111, &mut m);
        c.write(SimTime::ZERO, 128, 4, 0x2222_2222, &mut m);
        assert_eq!(m.load_u32(0), 0, "dirty data not yet in memory");
        c.read(SimTime::ZERO, 256, 4, &mut m); // evicts line 0 (LRU)
        assert_eq!(m.load_u32(0), 0x1111_1111, "writeback happened");
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn lru_replacement_order() {
        let mut c = Cache::new(128, 2);
        let mut m = FlatMem::new(4096);
        c.read(SimTime::ZERO, 0, 4, &mut m); // way A ← line 0
        c.read(SimTime::ZERO, 128, 4, &mut m); // way B ← line 128
        c.read(SimTime::ZERO, 0, 4, &mut m); // touch line 0
        c.read(SimTime::ZERO, 256, 4, &mut m); // must evict line 128
                                               // line 0 still resident:
        let (_, t) = c.read(SimTime::ZERO, 0, 4, &mut m);
        assert_eq!(t, SimTime::ZERO);
        // line 128 was evicted:
        let (_, t) = c.read(SimTime::ZERO, 128, 4, &mut m);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn flush_line_writes_back_and_invalidates() {
        let mut c = Cache::new(1024, 2);
        let mut m = FlatMem::new(4096);
        c.write(SimTime::ZERO, 96, 4, 0xABCD_0123, &mut m);
        assert_eq!(m.load_u32(96), 0);
        let t = c.flush_line(SimTime::ZERO, 96, &mut m);
        assert!(t > SimTime::ZERO);
        assert_eq!(m.load_u32(96), 0xABCD_0123);
        // Line no longer resident.
        let (_, t2) = c.read(SimTime::ZERO, 96, 4, &mut m);
        assert!(t2 > SimTime::ZERO);
    }

    #[test]
    fn invalidate_discards_dirty_data() {
        let mut c = Cache::new(1024, 2);
        let mut m = FlatMem::new(4096);
        m.store_u32(32, 0x5555_5555);
        c.write(SimTime::ZERO, 32, 4, 0x9999_9999, &mut m);
        c.invalidate_line(32);
        let (v, _) = c.read(SimTime::ZERO, 32, 4, &mut m);
        assert_eq!(v, 0x5555_5555, "memory value restored, dirty data lost");
    }

    #[test]
    fn sub_word_writes_merge() {
        let mut c = Cache::new(1024, 2);
        let mut m = FlatMem::new(4096);
        c.write(SimTime::ZERO, 0, 4, 0x1122_3344, &mut m);
        c.write(SimTime::ZERO, 1, 1, 0xFF, &mut m);
        let (v, _) = c.read(SimTime::ZERO, 0, 4, &mut m);
        assert_eq!(v, 0x11FF_3344);
    }

    #[test]
    fn flush_of_clean_line_is_free() {
        let mut c = Cache::new(1024, 2);
        let mut m = FlatMem::new(4096);
        c.read(SimTime::ZERO, 0, 4, &mut m);
        let t = c.flush_line(SimTime::ZERO, 0, &mut m);
        assert_eq!(t, SimTime::ZERO, "clean line: no writeback");
    }

    #[test]
    fn undecodable_word_fills_and_fetches_as_err() {
        let mut c = Cache::instruction(1024, 2);
        let mut m = FlatMem::new(4096);
        m.store_u32(64, crate::isa::encode(Instr::Halt));
        m.store_u32(68, 0xFC00_0000);
        let (i, t) = c.fetch(SimTime::ZERO, 64, &mut m);
        assert_eq!(i, Ok(Instr::Halt));
        assert_eq!(t, m.line_time, "the fill decoded the whole line");
        let (i, t) = c.fetch(SimTime::ZERO, 68, &mut m);
        assert_eq!(i, Err(0xFC00_0000), "the word comes back undecoded");
        assert_eq!(t, SimTime::ZERO);
        assert_eq!((c.stats.hits, c.stats.misses), (1, 1));
    }

    #[test]
    fn invalidation_drops_the_decoded_copy() {
        let mut c = Cache::instruction(1024, 2);
        let mut m = FlatMem::new(4096);
        m.store_u32(0, crate::isa::encode(Instr::Nop));
        assert_eq!(c.fetch(SimTime::ZERO, 0, &mut m).0, Ok(Instr::Nop));
        m.store_u32(0, crate::isa::encode(Instr::Halt));
        assert_eq!(c.fetch(SimTime::ZERO, 0, &mut m).0, Ok(Instr::Nop), "stale");
        c.invalidate_all();
        assert_eq!(c.fetch(SimTime::ZERO, 0, &mut m).0, Ok(Instr::Halt));
    }

    #[test]
    #[should_panic(expected = "write through an instruction cache")]
    fn instruction_cache_rejects_writes() {
        let mut c = Cache::instruction(1024, 2);
        c.write(SimTime::ZERO, 0, 4, 0, &mut FlatMem::new(4096));
    }

    #[test]
    fn victim_writeback_address_reconstruction() {
        // Regression for tag/set address reassembly: write to a high
        // address, force eviction, verify memory got the right bytes.
        let mut c = Cache::new(128, 2); // 2 sets
        let mut m = FlatMem::new(1 << 16);
        let addr = 0x0000_1F20; // set = (0x1F20 >> 5) & 1 = 1
        c.write(SimTime::ZERO, addr, 4, 0x0BAD_F00D, &mut m);
        // Two more distinct lines in the same set to evict it.
        c.read(SimTime::ZERO, addr + 64, 4, &mut m);
        c.read(SimTime::ZERO, addr + 128, 4, &mut m);
        assert_eq!(m.load_u32(addr), 0x0BAD_F00D);
    }
}
