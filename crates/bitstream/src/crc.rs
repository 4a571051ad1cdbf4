//! Bitstream CRC.
//!
//! The configuration logic accumulates a CRC over every register write and
//! compares it against the value supplied in the CRC register at the end of
//! the stream; a mismatch aborts configuration. We use CRC-32 (IEEE 802.3
//! polynomial, bit-reflected) over `(register, word)` pairs — the exact
//! polynomial differs from the silicon's, but the protocol role (detect
//! corrupted configuration data before it reaches the fabric) is identical.

/// Running bitstream CRC accumulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrcAccumulator {
    state: u32,
}

impl Default for CrcAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

const POLY: u32 = 0xEDB8_8320; // reflected IEEE 802.3

/// Slice-by-4 tables: `TABLES[0][b]` is the CRC of the byte `b` shifted
/// through the register, and `TABLES[k][b]` the same byte followed by `k`
/// zero bytes, so one word's four bytes are absorbed by four independent
/// lookups instead of 32 dependent bit steps.
const TABLES: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

impl CrcAccumulator {
    /// Fresh accumulator (also the state after an `RCRC` command).
    pub fn new() -> Self {
        CrcAccumulator { state: 0xFFFF_FFFF }
    }

    /// Resets the accumulator (the `RCRC` command).
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }

    /// Absorbs one register write: the 5-bit register address and the 32-bit
    /// data word, mirroring how the silicon hashes (address, data) pairs.
    /// The word's bytes go in least significant first, then the address.
    #[inline]
    pub fn absorb(&mut self, reg: u8, word: u32) {
        let s = self.state ^ word;
        let s = TABLES[3][(s & 0xFF) as usize]
            ^ TABLES[2][((s >> 8) & 0xFF) as usize]
            ^ TABLES[1][((s >> 16) & 0xFF) as usize]
            ^ TABLES[0][(s >> 24) as usize];
        self.state = TABLES[0][((s ^ u32::from(reg & 0x1F)) & 0xFF) as usize] ^ (s >> 8);
    }

    /// Current CRC value (what a CRC-register write must match).
    pub fn value(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial register the tables were built from: one shift
    /// and conditional XOR per bit of each byte.
    fn absorb_bitwise(state: &mut u32, reg: u8, word: u32) {
        for byte in word.to_le_bytes().into_iter().chain([reg & 0x1F]) {
            *state ^= u32::from(byte);
            for _ in 0..8 {
                let lsb = *state & 1;
                *state >>= 1;
                if lsb != 0 {
                    *state ^= POLY;
                }
            }
        }
    }

    #[test]
    fn tables_match_the_bitwise_register() {
        let mut rng = vp2_sim::SplitMix64::new(0xC5C);
        let mut crc = CrcAccumulator::new();
        let mut bitwise = 0xFFFF_FFFF;
        for i in 0..20_000u32 {
            // Every register byte (the upper bits are masked off), and
            // words from all-zero to all-one as well as random ones.
            let reg = i as u8;
            let word = match i % 4 {
                0 => 0,
                1 => u32::MAX,
                _ => rng.next_u32(),
            };
            crc.absorb(reg, word);
            absorb_bitwise(&mut bitwise, reg, word);
            assert_eq!(crc.state, bitwise, "after {} words", i + 1);
        }
    }

    #[test]
    fn deterministic() {
        let mut a = CrcAccumulator::new();
        let mut b = CrcAccumulator::new();
        for i in 0..100u32 {
            a.absorb(2, i.wrapping_mul(0x9E37));
            b.absorb(2, i.wrapping_mul(0x9E37));
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn sensitive_to_data() {
        let mut a = CrcAccumulator::new();
        let mut b = CrcAccumulator::new();
        a.absorb(2, 1);
        b.absorb(2, 2);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn sensitive_to_register() {
        let mut a = CrcAccumulator::new();
        let mut b = CrcAccumulator::new();
        a.absorb(1, 42);
        b.absorb(2, 42);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn sensitive_to_order() {
        let mut a = CrcAccumulator::new();
        let mut b = CrcAccumulator::new();
        a.absorb(2, 1);
        a.absorb(2, 2);
        b.absorb(2, 2);
        b.absorb(2, 1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = CrcAccumulator::new();
        a.absorb(3, 7);
        a.reset();
        assert_eq!(a.value(), CrcAccumulator::new().value());
    }
}
