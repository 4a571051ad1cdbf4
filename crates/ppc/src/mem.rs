//! The CPU's view of the memory system.
//!
//! The CPU core is bus-agnostic: every access goes through [`MemoryPort`],
//! which returns both data and the simulated time the access consumed.
//! `rtr-core` implements the trait on top of the PLB/OPB fabric; unit tests
//! use [`FlatMem`].

use vp2_sim::SimTime;

/// Cache line size in bytes (PowerPC 405: 32-byte lines).
pub const LINE_BYTES: usize = 32;

/// Interface between CPU (and its caches) and the memory system.
pub trait MemoryPort {
    /// Uncached single-beat read of `size` ∈ {1, 2, 4} bytes at `addr`
    /// (naturally aligned). Returns the zero-extended data and the time the
    /// access took.
    fn read(&mut self, now: SimTime, addr: u32, size: u8) -> (u32, SimTime);

    /// Uncached single-beat write.
    fn write(&mut self, now: SimTime, addr: u32, size: u8, data: u32) -> SimTime;

    /// Cache-line fill (32 bytes, line-aligned `addr`). The 64-bit system's
    /// PLB transfers these as 64-bit-beat bursts — the paper's "only
    /// transfers that go through the caches use 64-bit transfers".
    fn read_line(&mut self, now: SimTime, addr: u32, buf: &mut [u8; LINE_BYTES]) -> SimTime;

    /// Cache-line writeback.
    fn write_line(&mut self, now: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime;

    /// Is the address cacheable? MMIO ranges (the docks, the HWICAP, ...)
    /// must return `false`.
    fn is_cacheable(&self, addr: u32) -> bool;

    /// The address the last uncached access named if the memory system
    /// refused it (a bus error: the core takes a machine check), clearing
    /// the record. A refused read returns 0 and a refused write is
    /// dropped. Memory that refuses nothing keeps the default.
    fn take_fault(&mut self) -> Option<u32> {
        None
    }
}

/// Simple flat memory with fixed access times — the unit-test memory system.
#[derive(Debug, Clone)]
pub struct FlatMem {
    /// Backing bytes.
    pub bytes: Vec<u8>,
    /// Time per single-beat access.
    pub beat_time: SimTime,
    /// Time per line transfer.
    pub line_time: SimTime,
    /// Addresses at or above this are uncacheable (MMIO-like).
    pub uncached_base: u32,
    /// Count of line transfers (test observability).
    pub line_ops: u64,
    /// Count of single-beat operations.
    pub beat_ops: u64,
}

impl FlatMem {
    /// `size` bytes of zeroed memory, everything cacheable.
    pub fn new(size: usize) -> Self {
        FlatMem {
            bytes: vec![0; size],
            beat_time: SimTime::from_ns(10),
            line_time: SimTime::from_ns(40),
            uncached_base: u32::MAX,
            line_ops: 0,
            beat_ops: 0,
        }
    }

    /// Word-aligned helper for tests.
    pub fn store_u32(&mut self, addr: u32, v: u32) {
        self.bytes[addr as usize..addr as usize + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Word-aligned helper for tests.
    pub fn load_u32(&self, addr: u32) -> u32 {
        u32::from_be_bytes(
            self.bytes[addr as usize..addr as usize + 4]
                .try_into()
                .expect("4 bytes"),
        )
    }
}

impl MemoryPort for FlatMem {
    fn read(&mut self, _now: SimTime, addr: u32, size: u8) -> (u32, SimTime) {
        self.beat_ops += 1;
        let a = addr as usize;
        let v = match size {
            1 => u32::from(self.bytes[a]),
            2 => u32::from(u16::from_be_bytes(self.bytes[a..a + 2].try_into().unwrap())),
            4 => self.load_u32(addr),
            _ => panic!("bad access size {size}"),
        };
        (v, self.beat_time)
    }

    fn write(&mut self, _now: SimTime, addr: u32, size: u8, data: u32) -> SimTime {
        self.beat_ops += 1;
        let a = addr as usize;
        match size {
            1 => self.bytes[a] = data as u8,
            2 => self.bytes[a..a + 2].copy_from_slice(&(data as u16).to_be_bytes()),
            4 => self.store_u32(addr, data),
            _ => panic!("bad access size {size}"),
        }
        self.beat_time
    }

    fn read_line(&mut self, _now: SimTime, addr: u32, buf: &mut [u8; LINE_BYTES]) -> SimTime {
        self.line_ops += 1;
        let a = addr as usize;
        buf.copy_from_slice(&self.bytes[a..a + LINE_BYTES]);
        self.line_time
    }

    fn write_line(&mut self, _now: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime {
        self.line_ops += 1;
        let a = addr as usize;
        self.bytes[a..a + LINE_BYTES].copy_from_slice(buf);
        self.line_time
    }

    fn is_cacheable(&self, addr: u32) -> bool {
        addr < self.uncached_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_halfword_word_access() {
        let mut m = FlatMem::new(64);
        m.write(SimTime::ZERO, 0, 4, 0x1122_3344);
        assert_eq!(m.read(SimTime::ZERO, 0, 4).0, 0x1122_3344);
        assert_eq!(m.read(SimTime::ZERO, 0, 1).0, 0x11, "big-endian byte 0");
        assert_eq!(m.read(SimTime::ZERO, 3, 1).0, 0x44);
        assert_eq!(m.read(SimTime::ZERO, 2, 2).0, 0x3344);
        m.write(SimTime::ZERO, 1, 1, 0xAB);
        assert_eq!(m.read(SimTime::ZERO, 0, 4).0, 0x11AB_3344);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = FlatMem::new(128);
        let mut line = [0u8; LINE_BYTES];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        m.write_line(SimTime::ZERO, 32, &line);
        let mut back = [0u8; LINE_BYTES];
        m.read_line(SimTime::ZERO, 32, &mut back);
        assert_eq!(line, back);
        assert_eq!(m.line_ops, 2);
    }

    #[test]
    fn cacheability_boundary() {
        let mut m = FlatMem::new(64);
        m.uncached_base = 0x8000_0000;
        assert!(m.is_cacheable(0x7FFF_FFFF));
        assert!(!m.is_cacheable(0x8000_0000));
    }
}
