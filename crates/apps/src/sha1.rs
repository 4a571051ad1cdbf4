//! SHA-1 (paper table 11; 64-bit system only).
//!
//! "We also tested the system with the more demanding hash function SHA1.
//! … Our implementation does not fit into the dynamic area of the 32-bit
//! system, so no comparison can be done."
//!
//! * **Software**: an RFC 3174-style implementation in assembly — context
//!   initialisation, byte-wise message staging, padding and digest
//!   extraction all included, which is exactly the fixed overhead the paper
//!   notes dominates for small messages.
//! * **Hardware**: a behavioural block core (16 word writes per block, the
//!   80 rounds run between transfers) plus a gate-level **8-round-unrolled**
//!   core. The unrolled datapath is what makes it too big for the 32-bit
//!   system's 308-CLB region while fitting the 64-bit system's 768 CLBs —
//!   reproduce the paper's fits/doesn't-fit result with a real netlist.
//!   Transfers use 32-bit CPU-controlled stores, as in the paper.

use dock::{DynamicModule, ModuleOutput};
use vp2_netlist::components as c;
use vp2_netlist::graph::{Bus, NetId, Netlist};

/// SHA-1 initial hash values.
pub const IV: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];
/// Round constants per 20-round phase.
pub const K: [u32; 4] = [0x5A82_7999, 0x6ED9_EBA1, 0x8F1B_BCDC, 0xCA62_C1D6];

/// Reference SHA-1 (returns the 5-word digest).
pub fn sha1_reference(msg: &[u8]) -> [u32; 5] {
    let mut h = IV;
    let mut data = msg.to_vec();
    let bitlen = (msg.len() as u64) * 8;
    data.push(0x80);
    while data.len() % 64 != 56 {
        data.push(0);
    }
    data.extend_from_slice(&bitlen.to_be_bytes());
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut cc, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t / 20 {
                0 => ((b & cc) | (!b & d), K[0]),
                1 => (b ^ cc ^ d, K[1]),
                2 => ((b & cc) | (b & d) | (cc & d), K[2]),
                _ => (b ^ cc ^ d, K[3]),
            };
            let t2 = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = cc;
            cc = b.rotate_left(30);
            b = a;
            a = t2;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(cc);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    h
}

// ---------------------------------------------------------------------
// Behavioural hardware module.
// ---------------------------------------------------------------------

/// Behavioural SHA-1 core. Protocol: offset 4 write = init; offset 0
/// writes = message words (16 per block, pre-padded by the driver);
/// reads at offsets 0/4/8/12/16 return H0..H4.
#[derive(Debug, Clone)]
pub struct Sha1Module {
    h: [u32; 5],
    block: [u32; 16],
    wcnt: usize,
}

impl Default for Sha1Module {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1Module {
    /// Fresh core.
    pub fn new() -> Self {
        Sha1Module {
            h: IV,
            block: [0; 16],
            wcnt: 0,
        }
    }

    fn process_block(&mut self) {
        let mut w = [0u32; 80];
        w[..16].copy_from_slice(&self.block);
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut cc, mut d, mut e) =
            (self.h[0], self.h[1], self.h[2], self.h[3], self.h[4]);
        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t / 20 {
                0 => ((b & cc) | (!b & d), K[0]),
                1 => (b ^ cc ^ d, K[1]),
                2 => ((b & cc) | (b & d) | (cc & d), K[2]),
                _ => (b ^ cc ^ d, K[3]),
            };
            let t2 = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = cc;
            cc = b.rotate_left(30);
            b = a;
            a = t2;
        }
        self.h[0] = self.h[0].wrapping_add(a);
        self.h[1] = self.h[1].wrapping_add(b);
        self.h[2] = self.h[2].wrapping_add(cc);
        self.h[3] = self.h[3].wrapping_add(d);
        self.h[4] = self.h[4].wrapping_add(e);
    }
}

impl DynamicModule for Sha1Module {
    fn name(&self) -> &str {
        "sha1-core"
    }

    fn poke(&mut self, data: u64) -> ModuleOutput {
        self.poke_at(0, data)
    }

    fn poke_at(&mut self, offset: u32, data: u64) -> ModuleOutput {
        if offset == 4 {
            *self = Sha1Module::new();
        } else {
            self.block[self.wcnt] = data as u32;
            self.wcnt += 1;
            if self.wcnt == 16 {
                self.process_block();
                self.wcnt = 0;
            }
        }
        ModuleOutput {
            data: u64::from(self.h[0]),
            valid: self.wcnt == 0,
        }
    }

    fn peek(&self) -> u64 {
        u64::from(self.h[0])
    }

    fn read_at(&mut self, offset: u32) -> u64 {
        let idx = (offset as usize / 4).min(4);
        u64::from(self.h[idx])
    }

    fn reset(&mut self) {
        *self = Sha1Module::new();
    }
}

// ---------------------------------------------------------------------
// Gate-level netlist: 8-round-unrolled core.
// ---------------------------------------------------------------------

/// One unrolled SHA-1 round in logic.
#[allow(clippy::too_many_arguments)]
fn round_logic(
    nl: &mut Netlist,
    a: &Bus,
    b: &Bus,
    cc: &Bus,
    d: &Bus,
    e: &Bus,
    w: &Bus,
    phase: &[NetId; 2],
) -> (Bus, Bus, Bus, Bus, Bus) {
    // f candidates.
    let ch: Bus = (0..32)
        .map(|i| {
            nl.lut(
                c::truth4(|b, cx, dx, _| (b && cx) || (!b && dx)),
                [Some(b[i]), Some(cc[i]), Some(d[i]), None],
            )
        })
        .collect();
    let par: Bus = (0..32).map(|i| c::xor3(nl, b[i], cc[i], d[i])).collect();
    let maj: Bus = (0..32).map(|i| c::maj3(nl, b[i], cc[i], d[i])).collect();
    // f = 4:1 mux by phase (0→ch, 1→par, 2→maj, 3→par).
    let f: Bus = (0..32)
        .map(|i| {
            let l0 = c::mux2(nl, ch[i], par[i], phase[0]); // phase 0/1
            let l1 = c::mux2(nl, maj[i], par[i], phase[0]); // phase 2/3
            c::mux2(nl, l0, l1, phase[1])
        })
        .collect();
    // K constant mux: per bit LUT over the two phase bits.
    let kbus: Bus = (0..32)
        .map(|i| {
            nl.lut(
                c::truth4(move |p0, p1, _, _| {
                    let k = K[usize::from(p0) | (usize::from(p1) << 1)];
                    (k >> i) & 1 == 1
                }),
                [Some(phase[0]), Some(phase[1]), None, None],
            )
        })
        .collect();
    let rot5 = c::rotl(a, 5);
    let s1 = c::add_mod(nl, &rot5, &f);
    let s2 = c::add_mod(nl, &s1, e);
    let s3 = c::add_mod(nl, &s2, &kbus);
    let t = c::add_mod(nl, &s3, w);
    let new_c = c::rotl(b, 30);
    (t, a.clone(), new_c, cc.clone(), d.clone())
}

/// Builds the 8-round-unrolled SHA-1 netlist. Ports: `din[32]`, `wr`,
/// `addr[3]`, `dout[32]`, `busy`, `valid`.
#[allow(clippy::too_many_lines)]
pub fn sha1_netlist() -> Netlist {
    let mut nl = Netlist::new("sha1-unroll8");
    let din = nl.input_bus("din", 32);
    let wr = nl.input("wr", 0);
    let addr = nl.input_bus("addr", 3);
    let zero = nl.constant(false);

    // addr 0 → data port; addr 1 → init command.
    let a0 = c::eq_const(&mut nl, &addr, 0);
    let a1 = c::eq_const(&mut nl, &addr, 1);
    let wr_data = c::and2(&mut nl, wr, a0);
    let init = c::and2(&mut nl, wr, a1);

    // busy FF and round counter rc (4 bits).
    let busy_d = nl.net();
    let busy = nl.ff(busy_d, false, None);
    let not_busy = c::not(&mut nl, busy);
    let absorb = c::and2(&mut nl, wr_data, not_busy);
    let rc_d: Bus = (0..4).map(|_| nl.net()).collect();
    let rc: Bus = rc_d.iter().map(|&d| nl.ff(d, false, None)).collect();
    let rc_is9 = c::eq_const(&mut nl, &rc, 9);
    let step = busy; // one round-group per free-running cycle while busy

    // Word counter (4 bits) during absorb.
    let wcnt_d: Bus = (0..4).map(|_| nl.net()).collect();
    let wcnt_ce = c::or2(&mut nl, absorb, init);
    let wcnt: Bus = wcnt_d
        .iter()
        .map(|&d| nl.ff(d, false, Some(wcnt_ce)))
        .collect();
    let wcnt_is15 = c::eq_const(&mut nl, &wcnt, 15);
    let start_block = c::and2(&mut nl, absorb, wcnt_is15);
    {
        let one = c::const_bus(&mut nl, 4, 1);
        let (inc, _) = c::adder(&mut nl, &wcnt, &one, zero);
        // next wcnt: 0 on init or start_block-completion or rc_is9 path;
        // else inc on absorb.
        let clr = c::or2(&mut nl, init, start_block);
        let not_clr = c::not(&mut nl, clr);
        for i in 0..4 {
            let v = c::and2(&mut nl, inc[i], not_clr);
            nl.lut_into(
                c::truth4(|a, _, _, _| a),
                [Some(v), None, None, None],
                wcnt_d[i],
            );
        }
    }

    // W ring: 16 x 32 FFs.
    let mut ring_d: Vec<Bus> = Vec::new();
    let mut ring: Vec<Bus> = Vec::new();
    for _ in 0..16 {
        let d: Bus = (0..32).map(|_| nl.net()).collect();
        let ce = c::or2(&mut nl, absorb, step);
        let q: Bus = d.iter().map(|&dd| nl.ff(dd, false, Some(ce))).collect();
        ring_d.push(d);
        ring.push(q);
    }

    // Working registers a..e and H0..H4.
    let mut work: Vec<Bus> = Vec::new();
    let mut work_d: Vec<Bus> = Vec::new();
    for _ in 0..5 {
        let d: Bus = (0..32).map(|_| nl.net()).collect();
        let ce = c::or2(&mut nl, start_block, step);
        let q: Bus = d.iter().map(|&dd| nl.ff(dd, false, Some(ce))).collect();
        work_d.push(d);
        work.push(q);
    }
    let mut hreg: Vec<Bus> = Vec::new();
    let mut hreg_d: Vec<Bus> = Vec::new();
    let h_ce = {
        let done = c::and2(&mut nl, step, rc_is9);
        c::or2(&mut nl, done, init)
    };
    for _ in 0..5 {
        let d: Bus = (0..32).map(|_| nl.net()).collect();
        let q: Bus = d.iter().map(|&dd| nl.ff(dd, false, Some(h_ce))).collect();
        hreg_d.push(d);
        hreg.push(q);
    }

    // Eight unrolled rounds. Round index = 8*rc + j; phase = index / 20.
    let mut a = work[0].clone();
    let mut b = work[1].clone();
    let mut cw = work[2].clone();
    let mut d = work[3].clone();
    let mut e = work[4].clone();
    // New W values for the ring shift.
    let mut new_w: Vec<Bus> = Vec::new();
    for k in 0..8usize {
        let w13 = if 13 + k < 16 {
            ring[13 + k].clone()
        } else {
            new_w[k - 3].clone()
        };
        let x1 = c::bus_xor(&mut nl, &w13, &ring[8 + k]);
        let x2 = c::bus_xor(&mut nl, &x1, &ring[2 + k]);
        let x3 = c::bus_xor(&mut nl, &x2, &ring[k]);
        new_w.push(c::rotl(&x3, 1));
    }
    for (j, ring_j) in ring.iter().enumerate().take(8) {
        // phase bits as LUTs of rc: phase = (8*rc + j) / 20.
        let p0 = nl.lut(
            c::truth4(move |r0, r1, r2, r3| {
                let rcv = usize::from(r0)
                    | usize::from(r1) << 1
                    | usize::from(r2) << 2
                    | usize::from(r3) << 3;
                let round = 8 * rcv + j;
                (round / 20) & 1 == 1
            }),
            [Some(rc[0]), Some(rc[1]), Some(rc[2]), Some(rc[3])],
        );
        let p1 = nl.lut(
            c::truth4(move |r0, r1, r2, r3| {
                let rcv = usize::from(r0)
                    | usize::from(r1) << 1
                    | usize::from(r2) << 2
                    | usize::from(r3) << 3;
                let round = 8 * rcv + j;
                (round / 20) & 2 == 2
            }),
            [Some(rc[0]), Some(rc[1]), Some(rc[2]), Some(rc[3])],
        );
        let (na, nb, nc, nd, ne) = round_logic(&mut nl, &a, &b, &cw, &d, &e, ring_j, &[p0, p1]);
        a = na;
        b = nb;
        cw = nc;
        d = nd;
        e = ne;
    }

    // Ring next state: absorb → shift by 1 with din at the end;
    // step → shift by 8 with new_w appended.
    for i in 0..16usize {
        let absorb_src: Bus = if i < 15 {
            ring[i + 1].clone()
        } else {
            din.clone()
        };
        let step_src: Bus = if i < 8 {
            ring[i + 8].clone()
        } else {
            new_w[i - 8].clone()
        };
        for bit in 0..32 {
            c::mux2_into(
                &mut nl,
                step_src[bit],
                absorb_src[bit],
                absorb,
                ring_d[i][bit],
            );
        }
    }

    // Working-register next state: start_block → load H; step → round out.
    let round_out = [a, b, cw, d, e];
    for r in 0..5 {
        for bit in 0..32 {
            c::mux2_into(
                &mut nl,
                round_out[r][bit],
                hreg[r][bit],
                start_block,
                work_d[r][bit],
            );
        }
    }

    // H next state: init → IV constants; block done → H + round_out.
    for r in 0..5 {
        let ivbus = c::const_bus(&mut nl, 32, u64::from(IV[r]));
        let sum = c::add_mod(&mut nl, &hreg[r], &round_out[r]);
        for bit in 0..32 {
            c::mux2_into(&mut nl, sum[bit], ivbus[bit], init, hreg_d[r][bit]);
        }
    }

    // busy: set at start_block, cleared when rc reaches 9 (after its step)
    // or on init.
    {
        let still = {
            let not9 = c::not(&mut nl, rc_is9);
            c::and2(&mut nl, busy, not9)
        };
        let set = c::or2(&mut nl, start_block, still);
        let not_init = c::not(&mut nl, init);
        let v = c::and2(&mut nl, set, not_init);
        nl.lut_into(
            c::truth4(|x, _, _, _| x),
            [Some(v), None, None, None],
            busy_d,
        );
    }
    // rc: 0 at start_block/init, +1 per step.
    {
        let one = c::const_bus(&mut nl, 4, 1);
        let (inc, _) = c::adder(&mut nl, &rc, &one, zero);
        let clr = c::or2(&mut nl, start_block, init);
        let not_clr = c::not(&mut nl, clr);
        for i in 0..4 {
            let stepped = c::mux2(&mut nl, rc[i], inc[i], step);
            let v = c::and2(&mut nl, stepped, not_clr);
            nl.lut_into(
                c::truth4(|x, _, _, _| x),
                [Some(v), None, None, None],
                rc_d[i],
            );
        }
    }

    // Output: H word selected by addr (0..4); busy/valid flags.
    let dout: Bus = (0..32)
        .map(|bit| {
            let m01 = c::mux2(&mut nl, hreg[0][bit], hreg[1][bit], addr[0]);
            let m23 = c::mux2(&mut nl, hreg[2][bit], hreg[3][bit], addr[0]);
            let m0123 = c::mux2(&mut nl, m01, m23, addr[1]);
            c::mux2(&mut nl, m0123, hreg[4][bit], addr[2])
        })
        .collect();
    nl.output_bus("dout", &dout);
    nl.output("busy", 0, busy);
    let valid = c::not(&mut nl, busy);
    nl.output("valid", 0, valid);
    nl
}

// ---------------------------------------------------------------------
// Software implementation and drivers.
// ---------------------------------------------------------------------

/// RFC-style SHA-1 in assembly. Scratch layout (OCM):
/// 0x10000 W[80], 0x11800 staging block.
/// args: r3 = msg, r4 = len bytes, r5 = digest out (5 words).
/// Returns H0 in r3.
pub(crate) const SW_ASM: &str = r#"
entry:
    mr   r26, r3             ; msg
    mr   r27, r4             ; len
    mr   r28, r5             ; out
    # --- context init (H0..H4) ---
    lis  r6, 0x6745
    ori  r6, r6, 0x2301
    lis  r7, 0xEFCD
    ori  r7, r7, 0xAB89
    lis  r8, 0x98BA
    ori  r8, r8, 0xDCFE
    lis  r9, 0x1032
    ori  r9, r9, 0x5476
    lis  r10, 0xC3D2
    ori  r10, r10, 0xE1F0
    # --- full blocks ---
    mr   r29, r26            ; cursor
    mr   r30, r27            ; remaining
fullblocks:
    cmpwi r30, 64
    blt   padding
    mr    r3, r29
    bl    process
    addi  r29, r29, 64
    addi  r30, r30, -64
    b     fullblocks
padding:
    # staging buffer at 0x11800: copy remainder, append 0x80, zeros, length
    lis  r11, 1
    ori  r11, r11, 0x1800    ; staging base
    li   r12, 0              ; i
padcopy:
    cmpw r12, r30
    bge  padmark
    lbzx r13, r29, r12
    stbx r13, r11, r12
    addi r12, r12, 1
    b    padcopy
padmark:
    li   r13, 0x80
    stbx r13, r11, r12
    addi r12, r12, 1
padzero1:
    cmpwi r12, 56
    bgt  twopad              ; remainder >= 56: need a second block
    beq  padlen
    stbx r0, r11, r12
    addi r12, r12, 1
    b    padzero1
twopad:
padzero2:
    cmpwi r12, 64
    bge  pb1
    stbx r0, r11, r12
    addi r12, r12, 1
    b    padzero2
pb1:
    mr   r3, r11
    bl   process
    li   r12, 0
padzero3:
    cmpwi r12, 56
    bge  padlen
    stbx r0, r11, r12
    addi r12, r12, 1
    b    padzero3
padlen:
    stw  r0, 56(r11)         ; high bits of the length (always 0 here)
    slwi r13, r27, 3         ; bit length
    stw  r13, 60(r11)
    mr   r3, r11
    bl   process
    # --- digest out ---
    stw  r6, 0(r28)
    stw  r7, 4(r28)
    stw  r8, 8(r28)
    stw  r9, 12(r28)
    stw  r10, 16(r28)
    mr   r3, r6
    halt

# process one 64-byte block at r3; H in r6..r10; clobbers r11..r25
process:
    mflr r25
    lis  r11, 1              ; W base = 0x10000
    # W[0..16] big-endian word loads
    li   r12, 0
wload:
    lwzx r13, r3, r12
    stwx r13, r11, r12
    addi r12, r12, 4
    cmpwi r12, 64
    blt  wload
    # W[16..80]
wexpand:
    cmpwi r12, 320
    bge  rounds
    addi r14, r12, -12
    lwzx r13, r11, r14       ; W[t-3]
    addi r14, r12, -32
    lwzx r15, r11, r14       ; W[t-8]
    xor  r13, r13, r15
    addi r14, r12, -56
    lwzx r15, r11, r14       ; W[t-14]
    xor  r13, r13, r15
    addi r14, r12, -64
    lwzx r15, r11, r14       ; W[t-16]
    xor  r13, r13, r15
    rotlwi r13, r13, 1
    stwx r13, r11, r12
    addi r12, r12, 4
    b    wexpand
rounds:
    # a..e = H
    mr   r14, r6
    mr   r15, r7
    mr   r16, r8
    mr   r17, r9
    mr   r18, r10
    li   r12, 0              ; t*4
r_loop:
    # f and K by phase
    cmpwi r12, 80
    blt  ph0
    cmpwi r12, 160
    blt  ph1
    cmpwi r12, 240
    blt  ph2
    # phase 3: parity
    xor  r19, r15, r16
    xor  r19, r19, r17
    lis  r20, 0xCA62
    ori  r20, r20, 0xC1D6
    b    havef
ph0:
    and  r19, r15, r16
    nor  r21, r15, r15       ; ~b
    and  r21, r21, r17
    or   r19, r19, r21
    lis  r20, 0x5A82
    ori  r20, r20, 0x7999
    b    havef
ph1:
    xor  r19, r15, r16
    xor  r19, r19, r17
    lis  r20, 0x6ED9
    ori  r20, r20, 0xEBA1
    b    havef
ph2:
    and  r19, r15, r16
    and  r21, r15, r17
    or   r19, r19, r21
    and  r21, r16, r17
    or   r19, r19, r21
    lis  r20, 0x8F1B
    ori  r20, r20, 0xBCDC
havef:
    rotlwi r21, r14, 5
    add  r21, r21, r19
    add  r21, r21, r18
    add  r21, r21, r20
    lwzx r22, r11, r12       ; W[t]
    add  r21, r21, r22
    mr   r18, r17            ; e = d
    mr   r17, r16            ; d = c
    rotlwi r16, r15, 30      ; c = rotl30(b)
    mr   r15, r14            ; b = a
    mr   r14, r21            ; a = temp
    addi r12, r12, 4
    cmpwi r12, 320
    blt  r_loop
    add  r6, r6, r14
    add  r7, r7, r15
    add  r8, r8, r16
    add  r9, r9, r17
    add  r10, r10, r18
    mtlr r25
    blr
"#;

/// Hardware driver: init, stream the pre-padded message (padding built by
/// the CPU into a staging tail, like the software's, so the fixed overhead
/// is honest), read the digest.
/// args: r3 = msg, r4 = len bytes, r5 = digest out.
pub(crate) const HW_ASM: &str = r#"
entry:
    lis  r20, 0x8000
    stw  r0, 4(r20)          ; init command
    mr   r29, r3             ; cursor
    mr   r30, r4             ; remaining
fullblocks:
    cmpwi r30, 64
    blt  padding
    li   r12, 0
sblk:
    lwzx r13, r29, r12
    stw  r13, 0(r20)
    addi r12, r12, 4
    cmpwi r12, 64
    blt  sblk
    addi r29, r29, 64
    addi r30, r30, -64
    b    fullblocks
padding:
    lis  r11, 1
    ori  r11, r11, 0x1800
    li   r12, 0
padcopy:
    cmpw r12, r30
    bge  padmark
    lbzx r13, r29, r12
    stbx r13, r11, r12
    addi r12, r12, 1
    b    padcopy
padmark:
    li   r13, 0x80
    stbx r13, r11, r12
    addi r12, r12, 1
padzero1:
    cmpwi r12, 56
    bgt  twopad
    beq  padlen
    stbx r0, r11, r12
    addi r12, r12, 1
    b    padzero1
twopad:
padzero2:
    cmpwi r12, 64
    bge  pb1
    stbx r0, r11, r12
    addi r12, r12, 1
    b    padzero2
pb1:
    li   r12, 0
sblk2:
    lwzx r13, r11, r12
    stw  r13, 0(r20)
    addi r12, r12, 4
    cmpwi r12, 64
    blt  sblk2
    li   r12, 0
padzero3:
    cmpwi r12, 56
    bge  padlen
    stbx r0, r11, r12
    addi r12, r12, 1
    b    padzero3
padlen:
    stw  r0, 56(r11)
    slwi r13, r4, 3
    stw  r13, 60(r11)
    li   r12, 0
sblk3:
    lwzx r13, r11, r12
    stw  r13, 0(r20)
    addi r12, r12, 4
    cmpwi r12, 64
    blt  sblk3
    # digest
    lwz  r13, 0(r20)
    stw  r13, 0(r5)
    lwz  r13, 4(r20)
    stw  r13, 4(r5)
    lwz  r13, 8(r20)
    stw  r13, 8(r5)
    lwz  r13, 12(r20)
    stw  r13, 12(r5)
    lwz  r13, 16(r20)
    stw  r13, 16(r5)
    lwz  r3, 0(r20)
    halt
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{compare, Driver, Request, Work};
    use dock::GateLevelModule;
    use rtr_core::SystemKind;

    #[test]
    fn reference_vectors() {
        // FIPS 180-1 / RFC 3174 test vectors.
        assert_eq!(
            sha1_reference(b"abc"),
            [
                0xA999_3E36,
                0x4706_816A,
                0xBA3E_2571,
                0x7850_C26C,
                0x9CD0_D89D
            ]
        );
        assert_eq!(
            sha1_reference(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            [
                0x8498_3E44,
                0x1C3B_D26E,
                0xBAAE_4AA1,
                0xF951_29E5,
                0xE546_70F1
            ]
        );
        let a1000000 = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1_reference(&a1000000),
            [
                0x34AA_973C,
                0xD4C4_DAA4,
                0xF61E_EB2B,
                0xDBAD_2731,
                0x6534_016F
            ]
        );
    }

    #[test]
    fn behavioural_module_matches_reference() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 200] {
            let mut msg = vec![0u8; len];
            vp2_sim::SplitMix64::new(len as u64).fill_bytes(&mut msg);
            let want = sha1_reference(&msg);
            let mut module = Sha1Module::new();
            module.poke_at(4, 0);
            // Pre-padded stream.
            let mut data = msg.clone();
            let bitlen = (len as u64) * 8;
            data.push(0x80);
            while data.len() % 64 != 56 {
                data.push(0);
            }
            data.extend_from_slice(&bitlen.to_be_bytes());
            for w in data.chunks_exact(4) {
                module.poke_at(0, u64::from(u32::from_be_bytes(w.try_into().unwrap())));
            }
            let digest: Vec<u32> = (0..5).map(|i| module.read_at(4 * i) as u32).collect();
            assert_eq!(digest, want.to_vec(), "len {len}");
        }
    }

    #[test]
    fn gate_level_core_matches_reference_one_block() {
        let nl = sha1_netlist();
        let mut gate = GateLevelModule::new(&nl).unwrap();
        let msg = b"abc";
        let want = sha1_reference(msg);
        gate.poke_at(4, 0);
        let mut data = msg.to_vec();
        data.push(0x80);
        while data.len() % 64 != 56 {
            data.push(0);
        }
        data.extend_from_slice(&(24u64).to_be_bytes());
        for w in data.chunks_exact(4) {
            gate.poke_at(0, u64::from(u32::from_be_bytes(w.try_into().unwrap())));
        }
        let digest: Vec<u32> = (0..5).map(|i| gate.read_at(4 * i) as u32).collect();
        assert_eq!(digest, want.to_vec());
    }

    #[test]
    fn unrolled_core_does_not_fit_the_32bit_region_but_fits_the_64bit() {
        // The paper's claim: "Our implementation does not fit into the
        // dynamic area of the 32-bit system."
        let nl = sha1_netlist();
        use vp2_netlist::place::AutoPlacer;
        let fits32 = AutoPlacer::new().place(&nl, 28, 11).is_ok();
        assert!(
            !fits32,
            "SHA-1 must NOT fit 308 CLBs (needs {} LUTs)",
            nl.lut_cell_count()
        );
        let fits64 = AutoPlacer::new().place(&nl, 32, 24).is_ok();
        assert!(
            fits64,
            "SHA-1 must fit 768 CLBs (needs {} LUTs)",
            nl.lut_cell_count()
        );
    }

    #[test]
    fn hardware_gains_considerably() {
        let mut msg = vec![0u8; 2048];
        vp2_sim::SplitMix64::new(77).fill_bytes(&mut msg);
        let cmp = compare(SystemKind::Bit64, &Request::from(Work::Sha1 { msg }));
        assert!(
            cmp.speedup() > 2.0,
            "expected a considerable gain, got {:.2}",
            cmp.speedup()
        );
    }

    #[test]
    fn sw_overhead_dominates_small_messages() {
        // Per-byte software cost must be much higher at 64 B than at 8 KiB
        // (the RFC implementation's fixed overhead).
        let sw_time = |len: usize| {
            let mut m = rtr_core::build_system(SystemKind::Bit64);
            let req = Request::from(Work::Sha1 {
                msg: vec![7u8; len],
            });
            Driver::new().run_sw(&mut m, &req).0
        };
        let (t_small, t_big) = (sw_time(64), sw_time(8192));
        let per_byte_small = t_small.as_ns_f64() / 64.0;
        let per_byte_big = t_big.as_ns_f64() / 8192.0;
        assert!(
            per_byte_small > per_byte_big * 1.5,
            "small {per_byte_small:.1} ns/B vs big {per_byte_big:.1} ns/B"
        );
    }
}
