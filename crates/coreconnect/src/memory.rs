//! Memory: the backing store of on-chip BRAM, external SRAM (OPB) and
//! external DDR (PLB).
//!
//! The machine charges each memory's wait states from its system timing
//! (`rtr_core::timing::SystemTiming`); they are the calibration points
//! documented in EXPERIMENTS.md:
//!
//! * OCM (BRAM): 0 wait states — single-cycle on-chip memory;
//! * SRAM on the 32-bit system's OPB: asynchronous SRAM behind a small
//!   controller — 2 wait states per 32-bit beat;
//! * DDR on the 64-bit system's PLB: row activation + CAS on the first beat
//!   (5 wait states), then streaming beats.

/// Backing store with byte/half/word/doubleword access (big-endian, like
/// the PowerPC).
#[derive(Debug, Clone)]
pub struct MemArray {
    bytes: Vec<u8>,
}

impl MemArray {
    /// Zeroed array of `size` bytes.
    pub fn new(size: usize) -> Self {
        MemArray {
            bytes: vec![0; size],
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads `size` ∈ {1,2,4} bytes at `off` (zero-extended).
    pub fn read(&self, off: usize, size: u8) -> u32 {
        match size {
            1 => u32::from(self.bytes[off]),
            2 => u32::from(u16::from_be_bytes(
                self.bytes[off..off + 2].try_into().unwrap(),
            )),
            4 => u32::from_be_bytes(self.bytes[off..off + 4].try_into().unwrap()),
            _ => panic!("bad size {size}"),
        }
    }

    /// Writes `size` ∈ {1,2,4} bytes at `off`.
    pub fn write(&mut self, off: usize, size: u8, data: u32) {
        match size {
            1 => self.bytes[off] = data as u8,
            2 => self.bytes[off..off + 2].copy_from_slice(&(data as u16).to_be_bytes()),
            4 => self.bytes[off..off + 4].copy_from_slice(&data.to_be_bytes()),
            _ => panic!("bad size {size}"),
        }
    }

    /// Reads a 64-bit doubleword (for 64-bit PLB beats).
    pub fn read_u64(&self, off: usize) -> u64 {
        u64::from_be_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Writes a 64-bit doubleword.
    pub fn write_u64(&mut self, off: usize, data: u64) {
        self.bytes[off..off + 8].copy_from_slice(&data.to_be_bytes());
    }

    /// Raw slice access (loaders, DMA block moves).
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// Raw mutable slice access.
    pub fn slice_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        &mut self.bytes[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_array_endianness() {
        let mut m = MemArray::new(16);
        m.write(0, 4, 0x0102_0304);
        assert_eq!(m.read(0, 1), 0x01, "big-endian");
        assert_eq!(m.read(2, 2), 0x0304);
        m.write_u64(8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(8, 4), 0x1122_3344);
        assert_eq!(m.read_u64(8), 0x1122_3344_5566_7788);
    }

    #[test]
    fn slices() {
        let mut m = MemArray::new(8);
        m.slice_mut(2, 3).copy_from_slice(&[9, 8, 7]);
        assert_eq!(m.slice(2, 3), &[9, 8, 7]);
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
    }
}
