//! Jenkins lookup2 hash (paper tables 4 and 10).
//!
//! "A public domain implementation of a hashing function that returns a
//! 32-bit value for a variable-length key" — Bob Jenkins' `lookup2` from
//! Dr. Dobb's Journal, Sept. 1997.
//!
//! * **Software**: the portable byte-gathering form of the reference code
//!   (the form that compiles on a big-endian embedded target, where the
//!   aligned word-load shortcut is unavailable), in PPC assembly.
//! * **Hardware**: the whole hash in the dynamic region. The driver streams
//!   the zero-padded key as 32-bit words plus an init command carrying the
//!   length; the module performs the byte reordering and the `mix` rounds
//!   in logic, and presents the final hash on the read channel. Per
//!   12-byte block the CPU performs just three loads and three dock writes
//!   — but those transfers dominate, which is why the paper calls the
//!   speedup "much more modest" than pattern matching.

use dock::{DynamicModule, ModuleOutput};

/// The golden ratio initialiser of lookup2.
pub const GOLDEN: u32 = 0x9E37_79B9;

/// The `mix` primitive (9 shift/subtract/xor triplets).
#[inline]
pub fn mix(mut a: u32, mut b: u32, mut c: u32) -> (u32, u32, u32) {
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 13);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 8);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 13);
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 12);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 16);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 5);
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 3);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 10);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 15);
    (a, b, c)
}

/// Reference lookup2 over a byte key (little-endian word gathering, exactly
/// as in the published code).
pub fn hash_reference(key: &[u8], initval: u32) -> u32 {
    let mut a = GOLDEN;
    let mut b = GOLDEN;
    let mut c = initval;
    let mut k = key;
    while k.len() >= 12 {
        a = a.wrapping_add(gather(k, 0));
        b = b.wrapping_add(gather(k, 4));
        c = c.wrapping_add(gather(k, 8));
        let (na, nb, nc) = mix(a, b, c);
        a = na;
        b = nb;
        c = nc;
        k = &k[12..];
    }
    c = c.wrapping_add(key.len() as u32);
    // Tail: bytes enter a/b/c at the published positions; c's low byte is
    // reserved for the length.
    let tail = k;
    let byte = |i: usize| -> u32 { u32::from(*tail.get(i).unwrap_or(&0)) };
    a = a.wrapping_add(byte(0) | (byte(1) << 8) | (byte(2) << 16) | (byte(3) << 24));
    b = b.wrapping_add(byte(4) | (byte(5) << 8) | (byte(6) << 16) | (byte(7) << 24));
    c = c.wrapping_add((byte(8) << 8) | (byte(9) << 16) | (byte(10) << 24));
    let (_, _, c) = mix(a, b, c);
    c
}

/// Little-endian 32-bit gather.
fn gather(k: &[u8], off: usize) -> u32 {
    u32::from(k[off])
        | (u32::from(k[off + 1]) << 8)
        | (u32::from(k[off + 2]) << 16)
        | (u32::from(k[off + 3]) << 24)
}

// ---------------------------------------------------------------------
// Hardware module (behavioural).
// ---------------------------------------------------------------------

/// Streaming lookup2 in hardware. Protocol (canonical dock offsets):
///
/// * offset 4 write: **init** — payload = key length in bytes; resets
///   `a = b = GOLDEN`, `c = initval` (initval written at offset 8 first,
///   or zero).
/// * offset 8 write: set `initval` for the next init.
/// * offset 0 write: next 4 key bytes, zero-padded at the tail, packed
///   big-endian as loaded by `lwz` (the module reverses to little-endian —
///   byte order is free in hardware).
/// * offset 0 read: the hash (valid once `ceil(len/4)` words, or exactly
///   `3*ceil_blocks` words, have arrived; the module tracks the count).
#[derive(Debug, Clone)]
pub struct JenkinsModule {
    initval: u32,
    len: u32,
    remaining_words: u32,
    group: [u32; 3],
    group_fill: usize,
    bytes_left: u32,
    a: u32,
    b: u32,
    c: u32,
    hash: u32,
    done: bool,
}

impl Default for JenkinsModule {
    fn default() -> Self {
        Self::new()
    }
}

impl JenkinsModule {
    /// Fresh module.
    pub fn new() -> Self {
        JenkinsModule {
            initval: 0,
            len: 0,
            remaining_words: 0,
            group: [0; 3],
            group_fill: 0,
            bytes_left: 0,
            a: GOLDEN,
            b: GOLDEN,
            c: 0,
            hash: 0,
            done: false,
        }
    }

    fn finish_tail(&mut self) {
        // group holds the (zero-padded) tail words, little-endian.
        self.c = self.c.wrapping_add(self.len);
        let t0 = self.group[0];
        let t1 = self.group[1];
        let t2 = self.group[2];
        self.a = self.a.wrapping_add(t0);
        self.b = self.b.wrapping_add(t1);
        // c takes tail bytes 8..11 shifted up one byte (low byte = length).
        self.c = self.c.wrapping_add(t2 << 8);
        let (_, _, c) = mix(self.a, self.b, self.c);
        self.hash = c;
        self.done = true;
    }

    fn absorb_word(&mut self, be_word: u32) {
        if self.done || self.remaining_words == 0 {
            return;
        }
        // lwz loaded key bytes big-endian; reverse to the little-endian
        // gathering of the reference.
        let le = be_word.swap_bytes();
        self.group[self.group_fill] = le;
        self.group_fill += 1;
        self.remaining_words -= 1;
        let full_block_possible = self.bytes_left >= 12;
        if self.group_fill == 3 && full_block_possible {
            self.a = self.a.wrapping_add(self.group[0]);
            self.b = self.b.wrapping_add(self.group[1]);
            self.c = self.c.wrapping_add(self.group[2]);
            let (a, b, c) = mix(self.a, self.b, self.c);
            self.a = a;
            self.b = b;
            self.c = c;
            self.bytes_left -= 12;
            self.group = [0; 3];
            self.group_fill = 0;
        }
        if self.remaining_words == 0 {
            self.finish_tail();
        }
    }
}

impl DynamicModule for JenkinsModule {
    fn name(&self) -> &str {
        "jenkins-lookup2"
    }

    fn poke(&mut self, data: u64) -> ModuleOutput {
        self.poke_at(0, data)
    }

    fn poke_at(&mut self, offset: u32, data: u64) -> ModuleOutput {
        let data = data as u32;
        match offset {
            4 => {
                self.len = data;
                self.bytes_left = data;
                // Words streamed: 3 per full block plus 3 for the tail
                // (the driver always sends whole 3-word groups, zero-padded
                // — hardware-friendly framing).
                let blocks = data / 12;
                self.remaining_words = blocks * 3 + 3;
                self.a = GOLDEN;
                self.b = GOLDEN;
                self.c = self.initval;
                self.group = [0; 3];
                self.group_fill = 0;
                self.hash = 0;
                self.done = false;
            }
            8 => self.initval = data,
            _ => self.absorb_word(data),
        }
        ModuleOutput {
            data: u64::from(self.hash),
            valid: self.done,
        }
    }

    fn peek(&self) -> u64 {
        u64::from(self.hash)
    }

    fn reset(&mut self) {
        *self = JenkinsModule::new();
    }
}

// ---------------------------------------------------------------------
// Software implementation and drivers.
// ---------------------------------------------------------------------

/// Portable lookup2 in assembly: byte gathering + the full mix, as the
/// published C compiles on a big-endian CPU without unaligned word loads.
///
/// args: r3 = key pointer, r4 = length, r5 = initval. Returns hash in r3.
pub(crate) const SW_ASM: &str = r#"
entry:
    lis  r6, 0x9E37
    ori  r6, r6, 0x79B9      ; a
    mr   r7, r6              ; b
    mr   r8, r5              ; c = initval
    mr   r9, r3              ; k
    mr   r10, r4             ; len remaining
blkloop:
    cmpwi r10, 12
    blt   tail
    # a += k[0] | k[1]<<8 | k[2]<<16 | k[3]<<24  (byte gathering)
    lbz  r11, 0(r9)
    lbz  r12, 1(r9)
    slwi r12, r12, 8
    or   r11, r11, r12
    lbz  r12, 2(r9)
    slwi r12, r12, 16
    or   r11, r11, r12
    lbz  r12, 3(r9)
    slwi r12, r12, 24
    or   r11, r11, r12
    add  r6, r6, r11
    lbz  r11, 4(r9)
    lbz  r12, 5(r9)
    slwi r12, r12, 8
    or   r11, r11, r12
    lbz  r12, 6(r9)
    slwi r12, r12, 16
    or   r11, r11, r12
    lbz  r12, 7(r9)
    slwi r12, r12, 24
    or   r11, r11, r12
    add  r7, r7, r11
    lbz  r11, 8(r9)
    lbz  r12, 9(r9)
    slwi r12, r12, 8
    or   r11, r11, r12
    lbz  r12, 10(r9)
    slwi r12, r12, 16
    or   r11, r11, r12
    lbz  r12, 11(r9)
    slwi r12, r12, 24
    or   r11, r11, r12
    add  r8, r8, r11
    bl   mix
    addi r9, r9, 12
    addi r10, r10, -12
    b    blkloop
tail:
    add  r8, r8, r4          ; c += length
    # gather up to 11 tail bytes into r11(a-part) r12(b-part) r13(c-part)
    li   r11, 0
    li   r12, 0
    li   r13, 0
    li   r14, 0              ; i
tloop:
    cmpw r14, r10
    bge  tdone
    lbzx r15, r9, r14        ; key byte
    # which word does byte i land in? i<4 → a, i<8 → b, else c (shifted +8)
    cmpwi r14, 4
    blt  t_a
    cmpwi r14, 8
    blt  t_b
    addi r16, r14, -8
    slwi r16, r16, 3
    addi r16, r16, 8         ; (i-8)*8 + 8
    slw  r15, r15, r16
    or   r13, r13, r15
    b    tnext
t_a:
    slwi r16, r14, 3
    slw  r15, r15, r16
    or   r11, r11, r15
    b    tnext
t_b:
    addi r16, r14, -4
    slwi r16, r16, 3
    slw  r15, r15, r16
    or   r12, r12, r15
tnext:
    addi r14, r14, 1
    b    tloop
tdone:
    add  r6, r6, r11
    add  r7, r7, r12
    add  r8, r8, r13
    bl   mix
    mr   r3, r8
    halt

mix:
    # a -= b; a -= c; a ^= c >> 13;   (and the other eight lines)
    sub  r6, r6, r7
    sub  r6, r6, r8
    srwi r17, r8, 13
    xor  r6, r6, r17
    sub  r7, r7, r8
    sub  r7, r7, r6
    slwi r17, r6, 8
    xor  r7, r7, r17
    sub  r8, r8, r6
    sub  r8, r8, r7
    srwi r17, r7, 13
    xor  r8, r8, r17
    sub  r6, r6, r7
    sub  r6, r6, r8
    srwi r17, r8, 12
    xor  r6, r6, r17
    sub  r7, r7, r8
    sub  r7, r7, r6
    slwi r17, r6, 16
    xor  r7, r7, r17
    sub  r8, r8, r6
    sub  r8, r8, r7
    srwi r17, r7, 5
    xor  r8, r8, r17
    sub  r6, r6, r7
    sub  r6, r6, r8
    srwi r17, r8, 3
    xor  r6, r6, r17
    sub  r7, r7, r8
    sub  r7, r7, r6
    slwi r17, r6, 10
    xor  r7, r7, r17
    sub  r8, r8, r6
    sub  r8, r8, r7
    srwi r17, r7, 15
    xor  r8, r8, r17
    blr
"#;

/// Hardware driver: init + word streaming + one hash read.
///
/// args: r3 = key pointer (word-aligned buffer, zero-padded), r4 = length,
/// r5 = initval. Returns hash in r3.
pub(crate) const HW_ASM: &str = r#"
entry:
    lis  r20, 0x8000
    stw  r5, 8(r20)          ; initval
    stw  r4, 4(r20)          ; init with length
    # words to send = (len/12)*3 + 3
    li   r7, 12
    li   r8, 0               ; full blocks
divloop:
    cmpw r4, r7
    blt  divdone
    sub  r4, r4, r7
    addi r8, r8, 1
    b    divloop
divdone:
    mullw r8, r8, r7
    srwi r8, r8, 2           ; blocks*3
    addi r8, r8, 3           ; + tail group
    mr   r9, r3
sendloop:
    lwz  r10, 0(r9)
    stw  r10, 0(r20)
    addi r9, r9, 4
    addi r8, r8, -1
    cmpwi r8, 0
    bne  sendloop
    lwz  r3, 0(r20)          ; the hash
    halt
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{compare, Request, Work};
    use rtr_core::SystemKind;

    #[test]
    fn reference_known_properties() {
        // Published algebraic property checks: same key, different initval
        // → different hash; deterministic.
        let k = b"The quick brown fox";
        assert_eq!(hash_reference(k, 0), hash_reference(k, 0));
        assert_ne!(hash_reference(k, 0), hash_reference(k, 1));
        assert_ne!(hash_reference(b"abc", 0), hash_reference(b"abd", 0));
        // Empty key is valid.
        let _ = hash_reference(b"", 7);
    }

    #[test]
    fn behavioural_module_matches_reference() {
        for len in [0usize, 1, 4, 11, 12, 13, 24, 37, 100] {
            let mut key = vec![0u8; len];
            vp2_sim::SplitMix64::new(len as u64).fill_bytes(&mut key);
            let mut module = JenkinsModule::new();
            module.poke_at(8, 0xCAFE);
            module.poke_at(4, len as u64);
            let blocks = len / 12;
            let words = blocks * 3 + 3;
            let mut padded = key.clone();
            padded.resize(words * 4, 0);
            for w in 0..words {
                let be = u32::from_be_bytes(padded[4 * w..4 * w + 4].try_into().unwrap());
                module.poke_at(0, u64::from(be));
            }
            assert_eq!(
                module.read_pop() as u32,
                hash_reference(&key, 0xCAFE),
                "len {len}"
            );
        }
    }

    #[test]
    fn module_equals_reference_property() {
        for case in 0..32u64 {
            let mut rng = vp2_sim::SplitMix64::new(0x1EC4_0000 + case);
            let mut key = vec![0u8; rng.below(200) as usize];
            rng.fill_bytes(&mut key);
            let iv = rng.next_u32();
            let mut module = JenkinsModule::new();
            module.poke_at(8, u64::from(iv));
            module.poke_at(4, key.len() as u64);
            let words = key.len() / 12 * 3 + 3;
            let mut padded = key.clone();
            padded.resize(words * 4, 0);
            for w in 0..words {
                let be = u32::from_be_bytes(padded[4 * w..4 * w + 4].try_into().unwrap());
                module.poke_at(0, u64::from(be));
            }
            assert_eq!(
                module.read_pop() as u32,
                hash_reference(&key, iv),
                "case {case}"
            );
        }
    }

    #[test]
    fn speedup_is_modest() {
        // Paper: "the speedup in this case is much more modest" — a small
        // factor, far below pattern matching's, but hardware still ahead
        // for block-dominated keys.
        let mut key = vec![0u8; 4096];
        vp2_sim::SplitMix64::new(11).fill_bytes(&mut key);
        let req = Request::from(Work::Jenkins {
            key,
            initval: 0x1234_5678,
        });
        let cmp = compare(SystemKind::Bit32, &req);
        let s = cmp.speedup();
        assert!(
            (0.8..6.0).contains(&s),
            "expected a modest ratio, got {s:.2} (sw {} hw {})",
            cmp.sw,
            cmp.hw
        );
    }
}
