//! Set-associative cache model (the 405's 16 KB, 2-way, 32-byte-line
//! organisation by default; the data cache is write-back with
//! write-allocate).
//!
//! The cache owns no memory — misses and writebacks go through the
//! [`MemoryPort`] and the consumed time is returned
//! to the CPU, so a D-cache miss on the 32-bit system is automatically more
//! expensive than on the 64-bit system (slower bus, bridge crossing).
//!
//! # Layout
//!
//! The lines are stored as parallel arrays, way `w` of set `s` at index
//! `s * ways + w` in each. The dense tag array is the only validity
//! record: an invalid line holds the `NO_TAG` sentinel, which no address
//! can produce. A lookup reads only the set's tags, and a touch writes only
//! the LRU stamp array; a line's 32 data bytes, its dirty bit and its
//! micro-op line are read only once the lookup has hit or the miss path
//! has filled the line.
//!
//! # Predecoded instruction cache
//!
//! The instruction cache ([`Cache::instruction`]) keeps each resident
//! line translated into a micro-op line beside the line's bytes: its eight
//! words as micro-ops with resolved operands, an end-of-line sentinel and
//! the prefix sums of their base cycles (see the `uop` module), so a fetch
//! hit costs no `decode` and the interpreter can charge a straight-line
//! run at once. The invariant that makes this invisible: a micro-op line
//! is written only in the miss path, from the very bytes that fill the
//! line, and it is reachable only while the line is valid, so every
//! invalidation drops both and every refill rebuilds it. A word that does
//! not decode is held as an illegal micro-op that panics only when it
//! executes. Like the modelled I-cache, the cache is not coherent with
//! memory: code poked into memory while its line is resident stays stale
//! until the line is invalidated (`Machine::load_program` invalidates the
//! whole I-cache).

use crate::mem::{MemoryPort, LINE_BYTES};
use crate::uop::MicroLine;
use vp2_sim::SimTime;

/// `log2(LINE_BYTES)`: the offset bits below the set index.
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// The tag of an invalid line. A real tag is `addr >> tag_shift` with a
/// shift of at least [`LINE_SHIFT`], so it never has all 32 bits set.
const NO_TAG: u32 = u32::MAX;

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
    /// Each line's tag, or [`NO_TAG`] while the line is invalid.
    tags: Vec<u32>,
    /// Each line's LRU stamp: higher = more recently used.
    stamps: Vec<u64>,
    /// Each line's bytes.
    data: Vec<[u8; LINE_BYTES]>,
    /// Each line's dirty bit; always false for an invalid line.
    dirty: Vec<bool>,
    /// Each line's micro-ops; empty unless this is an instruction cache.
    micro: Vec<MicroLine>,
    ways: usize,
    set_mask: u32,
    /// `LINE_SHIFT + log2(sets)`: the address bits above the set index.
    tag_shift: u32,
    /// Statistics. Every touch counts exactly one hit or one miss, and a
    /// touched line's LRU stamp is `hits + misses` after the count, so the
    /// counters are the LRU clock: never reset them on a live cache.
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
            tags: vec![NO_TAG; lines],
            stamps: vec![0; lines],
            data: vec![[0; LINE_BYTES]; lines],
            dirty: vec![false; lines],
            micro: Vec::new(),
            ways,
            set_mask: (nsets - 1) as u32,
            tag_shift: LINE_SHIFT + nsets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// Builds an instruction cache: [`Cache::new`] plus a micro-op
    /// translation of every resident line, which the interpreter runs.
    pub fn instruction(size_bytes: usize, ways: usize) -> Self {
        let mut cache = Cache::new(size_bytes, ways);
        cache.micro = vec![MicroLine::EMPTY; cache.tags.len()];
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

    /// Stamps line `i` most recently used, after its hit or miss counted.
    #[inline]
    fn touch(&mut self, i: usize) {
        self.stamps[i] = self.stats.hits + self.stats.misses;
    }

    /// Index of the valid line holding `addr`, if resident.
    #[inline]
    fn find(&self, addr: u32) -> Option<usize> {
        let base = self.set_base(addr);
        let tag = addr >> self.tag_shift;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// Marks line `i` invalid, dropping its dirty bit with it.
    #[inline]
    fn invalidate(&mut self, i: usize) {
        self.tags[i] = NO_TAG;
        self.dirty[i] = false;
    }

    /// Ensures the line containing `addr` is resident, counting one hit or
    /// one miss; returns `(line index, time_spent)`. The interpreter
    /// fills a line once, runs its micro-ops ([`Cache::micro_line`]), and
    /// charges the further fetches with [`Cache::charge_hits`].
    #[inline(always)]
    pub(crate) fn fill<M: MemoryPort + ?Sized>(
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
    /// dirty, and fills it (and its micro-op line) from memory.
    fn miss<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        mem: &mut M,
    ) -> (usize, SimTime) {
        self.stats.misses += 1;
        let base = self.set_base(addr);
        let set = base..base + self.ways;
        // Victim: invalid first, else LRU.
        let way = self.tags[set.clone()]
            .iter()
            .position(|&t| t == NO_TAG)
            .unwrap_or_else(|| {
                self.stamps[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map(|(i, _)| i)
                    .expect("ways > 0")
            });
        let i = base + way;
        let mut spent = SimTime::ZERO;
        // Write back a dirty victim (an invalid line is never dirty).
        if self.dirty[i] {
            self.stats.writebacks += 1;
            let victim_addr =
                (self.tags[i] << self.tag_shift) | (addr & (self.set_mask << LINE_SHIFT));
            spent += mem.write_line(now + spent, victim_addr, &self.data[i]);
        }
        spent += mem.read_line(now + spent, Self::line_base(addr), &mut self.data[i]);
        if let Some(micro) = self.micro.get_mut(i) {
            *micro = MicroLine::build(&self.data[i]);
        }
        self.tags[i] = addr >> self.tag_shift;
        self.dirty[i] = false;
        self.touch(i);
        (i, spent)
    }

    /// Cached read of `size` ∈ {1,2,4} bytes; returns `(data, time)`.
    #[inline(always)]
    pub fn read<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        size: u8,
        mem: &mut M,
    ) -> (u32, SimTime) {
        let (i, spent) = self.fill(now, addr, mem);
        let off = (addr as usize) & (LINE_BYTES - 1);
        let d = &self.data[i];
        let v = match size {
            1 => u32::from(d[off]),
            2 => u32::from(u16::from_be_bytes(d[off..off + 2].try_into().unwrap())),
            4 => word_at(d, off),
            _ => panic!("bad size {size}"),
        };
        (v, spent)
    }

    /// The micro-op line of the resident line `line` (an index returned by
    /// [`Cache::fill`] on an [`instruction`](Cache::instruction) cache).
    #[inline(always)]
    pub(crate) fn micro_line(&self, line: usize) -> &MicroLine {
        &self.micro[line]
    }

    /// Counts `n` further hits on the resident line `line`: the state `n`
    /// fetch hits on it leave, since each hit stamps the line with the
    /// count after it. With `n = 0` it only re-stamps the line, which is a
    /// no-op right after the [`Cache::fill`] that returned it.
    #[inline]
    pub(crate) fn charge_hits(&mut self, line: usize, n: u64) {
        self.stats.hits += n;
        self.touch(line);
    }

    /// Cached write (write-back, write-allocate); returns time spent.
    #[inline(always)]
    pub fn write<M: MemoryPort + ?Sized>(
        &mut self,
        now: SimTime,
        addr: u32,
        size: u8,
        data: u32,
        mem: &mut M,
    ) -> SimTime {
        // A write would leave the line's micro-ops stale.
        assert!(self.micro.is_empty(), "write through an instruction cache");
        let (i, spent) = self.fill(now, addr, mem);
        let off = (addr as usize) & (LINE_BYTES - 1);
        let line = &mut self.data[i];
        match size {
            1 => line[off] = data as u8,
            2 => line[off..off + 2].copy_from_slice(&(data as u16).to_be_bytes()),
            4 => line[off..off + 4].copy_from_slice(&data.to_be_bytes()),
            _ => panic!("bad size {size}"),
        }
        self.dirty[i] = true;
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
        if self.dirty[i] {
            self.stats.writebacks += 1;
            spent += mem.write_line(now, Self::line_base(addr), &self.data[i]);
        }
        self.invalidate(i);
        spent
    }

    /// Invalidates (without writeback) the line containing `addr`. The
    /// `dcbi` instruction — used before reading DMA-produced buffers.
    pub fn invalidate_line(&mut self, addr: u32) {
        if let Some(i) = self.find(addr) {
            self.invalidate(i);
        }
    }

    /// Invalidates everything (no writeback).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(NO_TAG);
        self.dirty.fill(false);
    }
}

/// The big-endian word at byte offset `off` of a line.
#[inline]
fn word_at(data: &[u8; LINE_BYTES], off: usize) -> u32 {
    u32::from_be_bytes(data[off..off + 4].try_into().unwrap())
}

#[cfg(test)]
impl Cache {
    /// The word at `addr` of the resident line `line`.
    pub(crate) fn word(&self, line: usize, addr: u32) -> u32 {
        word_at(&self.data[line], (addr as usize) & (LINE_BYTES - 4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{encode, Instr};
    use crate::mem::FlatMem;
    use crate::uop::{Op, Uop};
    use vp2_sim::SplitMix64;

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

    /// An instruction fetch: the line's fill plus the micro-op at `addr`.
    fn fetch(c: &mut Cache, addr: u32, m: &mut FlatMem) -> (Uop, SimTime) {
        let (line, t) = c.fill(SimTime::ZERO, addr, m);
        (c.micro_line(line).op((addr as usize >> 2) % 8), t)
    }

    fn uop(i: Instr) -> Uop {
        Uop::translate(encode(i)).0
    }

    #[test]
    fn undecodable_word_fills_and_fetches_as_err() {
        let mut c = Cache::instruction(1024, 2);
        let mut m = FlatMem::new(4096);
        m.store_u32(64, encode(Instr::Halt));
        m.store_u32(68, 0xFC00_0000);
        let (i, t) = fetch(&mut c, 64, &mut m);
        assert_eq!(i, uop(Instr::Halt));
        assert_eq!(t, m.line_time, "the fill translated the whole line");
        let (i, t) = fetch(&mut c, 68, &mut m);
        assert_eq!(
            (i.op, i.imm),
            (Op::Illegal, 0xFC00_0000),
            "the word comes back untranslated"
        );
        assert_eq!(t, SimTime::ZERO);
        assert_eq!((c.stats.hits, c.stats.misses), (1, 1));
    }

    #[test]
    fn invalidation_drops_the_decoded_copy() {
        let mut c = Cache::instruction(1024, 2);
        let mut m = FlatMem::new(4096);
        m.store_u32(0, encode(Instr::Nop));
        assert_eq!(fetch(&mut c, 0, &mut m).0, uop(Instr::Nop));
        m.store_u32(0, encode(Instr::Halt));
        assert_eq!(fetch(&mut c, 0, &mut m).0, uop(Instr::Nop), "stale");
        c.invalidate_all();
        assert_eq!(fetch(&mut c, 0, &mut m).0, uop(Instr::Halt));
    }

    #[test]
    fn charge_hits_matches_fetch_hits() {
        // Two ways, two sets: line 0 and line 128 share set 0, so the LRU
        // stamps decide which one the next conflicting fill evicts.
        let mut m = FlatMem::new(4096);
        for addr in (0..256).step_by(4) {
            m.store_u32(addr, encode(Instr::Nop));
        }
        for n in 0..6u64 {
            let mut fetched = Cache::instruction(128, 2);
            for addr in [0, 128] {
                assert_eq!(fetch(&mut fetched, addr, &mut m).0, uop(Instr::Nop));
            }
            let mut charged = fetched.clone();
            let (line, t) = charged.fill(SimTime::ZERO, 4, &mut m);
            assert_eq!(t, SimTime::ZERO, "resident");
            charged.charge_hits(line, n);
            for k in 0..=n {
                let addr = 4 + 4 * (k as u32 % 7);
                assert_eq!(fetch(&mut fetched, addr, &mut m).0, uop(Instr::Nop));
            }
            assert_eq!(charged.tags, fetched.tags, "n = {n}: tags");
            assert_eq!(charged.stamps, fetched.stamps, "n = {n}: stamps");
            assert_eq!(charged.stats, fetched.stats, "n = {n}: stats");
        }
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

    /// The array-of-structs layout the cache had before its tags and
    /// stamps moved into dense arrays, kept as the differential oracle:
    /// one `Line` per way with its own valid bit, tag, stamp and data. It
    /// keeps no translation: its instruction fetch returns the raw word.
    mod oracle {
        use super::super::{word_at, CacheStats, LINE_BYTES, LINE_SHIFT};
        use crate::mem::MemoryPort;
        use vp2_sim::SimTime;

        #[derive(Debug, Clone)]
        struct Line {
            valid: bool,
            dirty: bool,
            tag: u32,
            data: [u8; LINE_BYTES],
            lru: u64,
        }

        #[derive(Debug, Clone)]
        pub struct Cache {
            lines: Vec<Line>,
            ways: usize,
            set_mask: u32,
            tag_shift: u32,
            tick: u64,
            pub stats: CacheStats,
        }

        impl Cache {
            pub fn new(size_bytes: usize, ways: usize) -> Self {
                let lines = size_bytes / LINE_BYTES;
                let nsets = lines / ways;
                let empty = Line {
                    valid: false,
                    dirty: false,
                    tag: 0,
                    data: [0; LINE_BYTES],
                    lru: 0,
                };
                Cache {
                    lines: vec![empty; lines],
                    ways,
                    set_mask: (nsets - 1) as u32,
                    tag_shift: LINE_SHIFT + nsets.trailing_zeros(),
                    tick: 0,
                    stats: CacheStats::default(),
                }
            }

            fn set_base(&self, addr: u32) -> usize {
                ((addr >> LINE_SHIFT) & self.set_mask) as usize * self.ways
            }

            fn touch(&mut self, i: usize) {
                self.tick += 1;
                self.lines[i].lru = self.tick;
            }

            fn find(&self, addr: u32) -> Option<usize> {
                let base = self.set_base(addr);
                let tag = addr >> self.tag_shift;
                self.lines[base..base + self.ways]
                    .iter()
                    .position(|l| l.valid && l.tag == tag)
                    .map(|way| base + way)
            }

            fn fill<M: MemoryPort>(
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
                self.stats.misses += 1;
                let base = self.set_base(addr);
                let set = &self.lines[base..base + self.ways];
                let way = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.lru)
                        .map(|(i, _)| i)
                        .expect("ways > 0")
                });
                let i = base + way;
                let mut spent = SimTime::ZERO;
                if self.lines[i].valid && self.lines[i].dirty {
                    self.stats.writebacks += 1;
                    let victim_addr = (self.lines[i].tag << self.tag_shift)
                        | (addr & (self.set_mask << LINE_SHIFT));
                    spent += mem.write_line(now + spent, victim_addr, &self.lines[i].data);
                }
                let mut buf = [0u8; LINE_BYTES];
                let line_addr = addr & !(LINE_BYTES as u32 - 1);
                spent += mem.read_line(now + spent, line_addr, &mut buf);
                let line = &mut self.lines[i];
                line.valid = true;
                line.dirty = false;
                line.tag = addr >> self.tag_shift;
                line.data = buf;
                self.touch(i);
                (i, spent)
            }

            pub fn read<M: MemoryPort>(
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
                    2 => u32::from(u16::from_be_bytes([d[off], d[off + 1]])),
                    _ => word_at(d, off),
                };
                (v, spent)
            }

            pub fn fetch<M: MemoryPort>(
                &mut self,
                now: SimTime,
                addr: u32,
                mem: &mut M,
            ) -> (u32, SimTime) {
                let (i, spent) = self.fill(now, addr, mem);
                let word = word_at(&self.lines[i].data, (addr as usize) & (LINE_BYTES - 4));
                (word, spent)
            }

            pub fn write<M: MemoryPort>(
                &mut self,
                now: SimTime,
                addr: u32,
                size: u8,
                data: u32,
                mem: &mut M,
            ) -> SimTime {
                let (i, spent) = self.fill(now, addr, mem);
                let off = (addr as usize) & (LINE_BYTES - 1);
                let line = &mut self.lines[i];
                match size {
                    1 => line.data[off] = data as u8,
                    2 => line.data[off..off + 2].copy_from_slice(&(data as u16).to_be_bytes()),
                    _ => line.data[off..off + 4].copy_from_slice(&data.to_be_bytes()),
                }
                line.dirty = true;
                spent
            }

            pub fn flush_line<M: MemoryPort>(
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
                    let line_addr = addr & !(LINE_BYTES as u32 - 1);
                    spent += mem.write_line(now, line_addr, &self.lines[i].data);
                }
                self.lines[i].valid = false;
                spent
            }

            pub fn invalidate_line(&mut self, addr: u32) {
                if let Some(i) = self.find(addr) {
                    self.lines[i].valid = false;
                }
            }

            pub fn invalidate_all(&mut self) {
                for line in &mut self.lines {
                    line.valid = false;
                }
            }
        }
    }

    /// Flat memory that logs the address of every line written back.
    #[derive(Clone)]
    struct LoggedMem {
        mem: FlatMem,
        writebacks: Vec<u32>,
    }

    impl MemoryPort for LoggedMem {
        fn read(&mut self, now: SimTime, addr: u32, size: u8) -> (u32, SimTime) {
            self.mem.read(now, addr, size)
        }
        fn write(&mut self, now: SimTime, addr: u32, size: u8, data: u32) -> SimTime {
            self.mem.write(now, addr, size, data)
        }
        fn read_line(&mut self, now: SimTime, addr: u32, buf: &mut [u8; LINE_BYTES]) -> SimTime {
            self.mem.read_line(now, addr, buf)
        }
        fn write_line(&mut self, now: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime {
            self.writebacks.push(addr);
            self.mem.write_line(now, addr, buf)
        }
        fn is_cacheable(&self, addr: u32) -> bool {
            self.mem.is_cacheable(addr)
        }
    }

    /// Operations per geometry and cache kind: a quick sweep in debug
    /// builds, a deeper one in release.
    const DIFF_OPS: usize = if cfg!(debug_assertions) {
        20_000
    } else {
        400_000
    };

    /// Drives the cache and the oracle with one seeded stream of
    /// operations over an address span four times the cache's size, so
    /// hits, conflict misses and dirty evictions all occur, and requires
    /// equal values, times, statistics, write-back addresses and memory.
    fn differential(size: usize, ways: usize, instruction: bool, seed: u64) {
        let what = format!(
            "{size} B {ways}-way {}",
            if instruction { "I" } else { "D" }
        );
        let span = 4 * size as u32;
        let mut rng = SplitMix64::new(seed);
        let mut flat = FlatMem::new(span as usize);
        rng.fill_bytes(&mut flat.bytes);
        for addr in (0..span).step_by(8) {
            flat.store_u32(addr, encode(Instr::Nop));
        }
        let mut mem = LoggedMem {
            mem: flat,
            writebacks: Vec::new(),
        };
        let mut oracle_mem = mem.clone();
        let mut cache = if instruction {
            Cache::instruction(size, ways)
        } else {
            Cache::new(size, ways)
        };
        let mut oracle = oracle::Cache::new(size, ways);
        // The micro-op an instruction fetch from the oracle must match.
        let translated = |(word, t): (u32, SimTime)| (Uop::translate(word).0, t);
        let mut now = SimTime::ZERO;
        for op in 0..DIFF_OPS {
            let size_log = rng.below(3) as u32;
            let addr = (rng.below(u64::from(span)) as u32) & !((1 << size_log) - 1);
            let bytes = 1u8 << size_log;
            let spent = match rng.below(100) {
                0 => {
                    cache.invalidate_all();
                    oracle.invalidate_all();
                    SimTime::ZERO
                }
                1..=4 => {
                    cache.invalidate_line(addr);
                    oracle.invalidate_line(addr);
                    SimTime::ZERO
                }
                5..=9 => {
                    let t = cache.flush_line(now, addr, &mut mem);
                    assert_eq!(
                        t,
                        oracle.flush_line(now, addr, &mut oracle_mem),
                        "{what} op {op}: flush"
                    );
                    t
                }
                10..=39 if !instruction => {
                    let data = rng.next_u32();
                    let t = cache.write(now, addr, bytes, data, &mut mem);
                    assert_eq!(
                        t,
                        oracle.write(now, addr, bytes, data, &mut oracle_mem),
                        "{what} op {op}: write"
                    );
                    t
                }
                10..=39 => {
                    // A block-engine run: one fill, then `n` hits charged
                    // at once, against `n + 1` fetches in the same line.
                    let pc = addr & !3;
                    let first = (pc as usize >> 2) % 8;
                    let n = rng.below((8 - first) as u64);
                    let (line, t) = cache.fill(now, pc, &mut mem);
                    assert_eq!(
                        (cache.micro_line(line).op(first), t),
                        translated(oracle.fetch(now, pc, &mut oracle_mem)),
                        "{what} op {op}: fill"
                    );
                    for k in 1..=n as usize {
                        let at = pc + 4 * k as u32;
                        assert_eq!(
                            cache.micro_line(line).op(first + k),
                            translated(oracle.fetch(now, at, &mut oracle_mem)).0,
                            "{what} op {op}: word {k} of the run"
                        );
                    }
                    cache.charge_hits(line, n);
                    t
                }
                40..=69 if instruction => {
                    let pc = addr & !3;
                    let (line, t) = cache.fill(now, pc, &mut mem);
                    let got = (cache.micro_line(line).op((pc as usize >> 2) % 8), t);
                    assert_eq!(
                        got,
                        translated(oracle.fetch(now, pc, &mut oracle_mem)),
                        "{what} op {op}: fetch"
                    );
                    t
                }
                _ => {
                    let got = cache.read(now, addr, bytes, &mut mem);
                    assert_eq!(
                        got,
                        oracle.read(now, addr, bytes, &mut oracle_mem),
                        "{what} op {op}: read"
                    );
                    got.1
                }
            };
            assert_eq!(cache.stats, oracle.stats, "{what} op {op}: stats");
            now += spent + SimTime::from_ps(rng.below(5_000));
        }
        assert!(
            cache.stats.hits > 0 && cache.stats.misses > 0,
            "{what}: stream exercises both"
        );
        if !instruction {
            assert!(
                cache.stats.writebacks > 0,
                "{what}: stream evicts dirty lines"
            );
        }
        assert_eq!(
            mem.writebacks, oracle_mem.writebacks,
            "{what}: write-back addresses"
        );
        assert!(mem.mem.bytes == oracle_mem.mem.bytes, "{what}: memory");
    }

    #[test]
    fn dense_layout_matches_the_line_struct_oracle() {
        for (size, ways) in [(16 * 1024, 2), (128, 2), (1024, 4)] {
            for instruction in [false, true] {
                differential(size, ways, instruction, 0x5EED ^ size as u64 ^ ways as u64);
            }
        }
    }
}
