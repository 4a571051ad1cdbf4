//! Pattern matching in bilevel images (paper tables 3 and 9).
//!
//! Task: slide an 8×8 binary pattern over a larger binary image and report,
//! for every window position, how many of the 64 pixels match.
//!
//! * **Software**: the straightforward per-pixel C translation — per pixel,
//!   compute the bit address (with a real multiply, as 2-D indexing
//!   compiles to), extract the image bit and the pattern bit, compare.
//!   This is the paper's point: bit manipulation is cumbersome on the CPU.
//! * **Hardware**: the paper's eight-stage row-matching pipeline realised
//!   as a block-streaming engine. The driver streams the 8 rows of the
//!   current band 32 columns (one word) at a time; the module keeps the
//!   last three 8×32 blocks, computes 4 window counts per incoming word
//!   (XNOR + popcount per row, summed across the eight rows) and queues
//!   them; the driver reads one packed result word per write once the
//!   pipeline is primed. Per 32-pixel word written the module produces 4
//!   window results — the bit-parallelism the CPU cannot express.
//! * **Host side**: the behavioural model and [`match_counts_reference`]
//!   share one bit-parallel row kernel (`row_window` cuts a window row out
//!   of two row words as a byte; `mismatches` XORs a window's eight packed
//!   rows with the packed pattern and counts the differing pixels with one
//!   `count_ones`), so both run at native speed. The gate-level netlist
//!   stays the independent check of the model.

use crate::harness::{self, run_asm, DST, SRC_A, SRC_B};
use dock::{DynamicModule, ModuleOutput};
use rtr_core::machine::Machine;
use std::collections::VecDeque;
use vp2_netlist::busmacro::DockMacros;
use vp2_netlist::components as c;
use vp2_netlist::graph::{Bus, NetId, Netlist};
use vp2_netlist::place::AutoPlacer;
use vp2_sim::{SimTime, SplitMix64};

/// A bit-packed bilevel image. Bit `x` of a row lives in word `x / 32`,
/// bit position `31 - (x % 32)` (big-endian bit order, matching how the
/// PowerPC addresses the packed bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryImage {
    /// Width in pixels (must be a multiple of 32).
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Packed rows, `width/32` words per row.
    pub data: Vec<u32>,
}

impl BinaryImage {
    /// Blank image.
    ///
    /// # Panics
    /// Panics unless `width` is a positive multiple of 32 and ≥ 8 rows.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width >= 32 && width.is_multiple_of(32),
            "width must be a multiple of 32"
        );
        assert!(height >= 8, "need at least 8 rows");
        BinaryImage {
            width,
            height,
            data: vec![0; width / 32 * height],
        }
    }

    /// Words per row.
    pub fn words_per_row(&self) -> usize {
        self.width / 32
    }

    /// Pixel accessor.
    pub fn pixel(&self, x: usize, y: usize) -> bool {
        let w = self.data[y * self.words_per_row() + x / 32];
        (w >> (31 - (x % 32))) & 1 == 1
    }

    /// Pixel setter.
    pub fn set_pixel(&mut self, x: usize, y: usize, v: bool) {
        let wpr = self.words_per_row();
        let word = &mut self.data[y * wpr + x / 32];
        let mask = 1u32 << (31 - (x % 32));
        if v {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Deterministic random image.
    pub fn random(width: usize, height: usize, seed: u64) -> Self {
        let mut img = BinaryImage::new(width, height);
        let mut rng = SplitMix64::new(seed);
        for w in &mut img.data {
            *w = rng.next_u32();
        }
        img
    }
}

/// The row kernel both host-side matchers share (this reference and the
/// behavioural [`PatMatchModule`]): the 8 pixels starting at column `p`
/// (`p <= 56`) of a big-endian pair of row words, as one byte.
fn row_window(pair: u64, p: usize) -> u8 {
    (pair >> (56 - p)) as u8
}

/// Mismatching pixels of a whole window: its eight row bytes packed with
/// row `r` in byte `r`, XORed with the pattern packed the same way. One
/// `count_ones` does the hardware's eight XNOR + popcount stages and their
/// sum (as mismatches, so matches are `64 -` this).
fn mismatches(window: u64, pattern: u64) -> u32 {
    (window ^ pattern).count_ones()
}

/// Reference implementation: `counts[y][x]` = matching pixels of the
/// window whose top-left corner is `(x, y)`.
pub fn match_counts_reference(img: &BinaryImage, pattern: &[u8; 8]) -> Vec<Vec<u8>> {
    let pattern = u64::from_le_bytes(*pattern);
    // Column `x`'s window over the last 8 image rows, newest row in the top
    // byte: each row's window bytes are extracted once and stay for the 8
    // windows that cover the row.
    let mut columns = vec![0u64; img.width - 7];
    let mut out = Vec::with_capacity(img.height - 7);
    for (y, row) in img.data.chunks(img.words_per_row()).enumerate() {
        for (x, column) in columns.iter_mut().enumerate() {
            let next = row.get(x / 32 + 1).copied().unwrap_or(0);
            let window = row_window(u64::from(row[x / 32]) << 32 | u64::from(next), x % 32);
            *column = *column >> 8 | u64::from(window) << 56;
        }
        if y >= 7 {
            let counts = columns.iter().map(|&w| 64 - mismatches(w, pattern) as u8);
            out.push(counts.collect());
        }
    }
    out
}

// ---------------------------------------------------------------------
// Hardware module: behavioural model.
// ---------------------------------------------------------------------

/// Command: load pattern row (bits 26:24 = row, bits 7:0 = row pattern).
pub const CMD_PATTERN: u32 = 0x1000_0000;
/// Command: band reset.
pub const CMD_RESET: u32 = 0x2000_0000;

/// Behavioural model of the pattern-matching module.
#[derive(Debug, Clone)]
pub struct PatMatchModule {
    pattern: [u8; 8],
    prev2: [u32; 8],
    prev: [u32; 8],
    cur: [u32; 8],
    wcnt: usize,
    blocks_done: u8,
    queue: VecDeque<u32>,
}

impl Default for PatMatchModule {
    fn default() -> Self {
        Self::new()
    }
}

impl PatMatchModule {
    /// Fresh (post-configuration) module.
    pub fn new() -> Self {
        PatMatchModule {
            pattern: [0; 8],
            prev2: [0; 8],
            prev: [0; 8],
            cur: [0; 8],
            wcnt: 0,
            blocks_done: 0,
            queue: VecDeque::new(),
        }
    }

    /// Count for the window starting at column `p` (0..32) of the `prev2`
    /// block (columns ≥ 32 spill into `prev`).
    fn window_count(&self, p: usize) -> u8 {
        let window = (0..8).fold(0u64, |window, r| {
            let pair = u64::from(self.prev2[r]) << 32 | u64::from(self.prev[r]);
            window | u64::from(row_window(pair, p)) << (8 * r)
        });
        64 - mismatches(window, u64::from_le_bytes(self.pattern)) as u8
    }
}

impl DynamicModule for PatMatchModule {
    fn name(&self) -> &str {
        "patmatch8x8"
    }

    fn poke(&mut self, data: u64) -> ModuleOutput {
        self.poke_at(0, data)
    }

    fn poke_at(&mut self, offset: u32, data: u64) -> ModuleOutput {
        let data = data as u32;
        if offset == 4 {
            match data >> 28 {
                1 => {
                    let row = ((data >> 24) & 0x7) as usize;
                    self.pattern[row] = (data & 0xFF) as u8;
                }
                2 => {
                    // Band reset: counters and queue only. Block contents
                    // stay (unobservable until two fresh blocks arrive),
                    // matching the gate-level design.
                    self.wcnt = 0;
                    self.blocks_done = 0;
                    self.queue.clear();
                }
                _ => {}
            }
        } else {
            if self.blocks_done >= 2 {
                let p = 4 * self.wcnt;
                let word = (u32::from(self.window_count(p)) << 24)
                    | (u32::from(self.window_count(p + 1)) << 16)
                    | (u32::from(self.window_count(p + 2)) << 8)
                    | u32::from(self.window_count(p + 3));
                if self.queue.len() < 8 {
                    self.queue.push_back(word);
                }
            }
            self.cur[self.wcnt] = data;
            self.wcnt += 1;
            if self.wcnt == 8 {
                self.prev2 = self.prev;
                self.prev = self.cur;
                self.blocks_done = (self.blocks_done + 1).min(2);
                self.wcnt = 0;
            }
        }
        ModuleOutput {
            data: u64::from(self.queue.front().copied().unwrap_or(0)),
            valid: !self.queue.is_empty(),
        }
    }

    fn peek(&self) -> u64 {
        u64::from(self.queue.front().copied().unwrap_or(0))
    }

    fn read_pop(&mut self) -> u64 {
        u64::from(self.queue.pop_front().unwrap_or(0))
    }

    fn reset(&mut self) {
        *self = PatMatchModule::new();
    }
}

// ---------------------------------------------------------------------
// Hardware module: gate-level netlist.
// ---------------------------------------------------------------------

/// 8:1 mux built from a mux2 tree.
fn mux8(nl: &mut Netlist, inputs: &[NetId; 8], sel: &[NetId; 3]) -> NetId {
    let l0: Vec<NetId> = (0..4)
        .map(|i| c::mux2(nl, inputs[2 * i], inputs[2 * i + 1], sel[0]))
        .collect();
    let l1: Vec<NetId> = (0..2)
        .map(|i| c::mux2(nl, l0[2 * i], l0[2 * i + 1], sel[1]))
        .collect();
    c::mux2(nl, l1[0], l1[1], sel[2])
}

/// Builds the gate-level pattern matcher. Port convention:
/// `din[32]`, `wr`, `rd`, `addr[1]`, `dout[32]`, `valid`.
pub fn patmatch_netlist() -> Netlist {
    let mut nl = Netlist::new("patmatch8x8");
    let din = nl.input_bus("din", 32);
    let wr = nl.input("wr", 0);
    let rd = nl.input("rd", 0);
    let addr = nl.input("addr", 0);
    let zero = nl.constant(false);

    let is_cmd = addr;
    let not_cmd = c::not(&mut nl, is_cmd);
    let wr_data = c::and2(&mut nl, wr, not_cmd);
    let wr_cmd = c::and2(&mut nl, wr, is_cmd);

    // Command decode: din[31:28] == 1 → pattern, == 2 → reset.
    let nib: Vec<NetId> = (28..32).map(|b| din[b]).collect();
    let is_pat = c::eq_const(&mut nl, &nib, 1);
    let is_rst = c::eq_const(&mut nl, &nib, 2);
    let pat_wr = c::and2(&mut nl, wr_cmd, is_pat);
    let rst = c::and2(&mut nl, wr_cmd, is_rst);

    // Pattern registers: 8 rows x 8 bits. Row select = din[26:24].
    let rowsel: Vec<NetId> = vec![din[24], din[25], din[26]];
    let mut pattern: Vec<Bus> = Vec::new();
    for r in 0..8u64 {
        let hit = c::eq_const(&mut nl, &rowsel, r);
        let ce = c::and2(&mut nl, pat_wr, hit);
        // Pattern bit (r, j) = din[7 - j].
        let bits: Bus = (0..8).map(|j| din[7 - j]).collect();
        pattern.push(c::register(&mut nl, &bits, Some(ce)));
    }

    // Write counter wcnt (3 bits) with synchronous reset.
    let wcnt_d: Bus = (0..3).map(|_| nl.net()).collect();
    let wcnt_ce = c::or2(&mut nl, wr_data, rst);
    let wcnt: Bus = wcnt_d
        .iter()
        .map(|&d| nl.ff(d, false, Some(wcnt_ce)))
        .collect();
    {
        let one = c::const_bus(&mut nl, 3, 1);
        let (inc, _) = c::adder(&mut nl, &wcnt, &one, zero);
        let not_rst = c::not(&mut nl, rst);
        for i in 0..3 {
            let gated = c::and2(&mut nl, inc[i], not_rst);
            nl.lut_into(
                c::truth4(|a, _, _, _| a),
                [Some(gated), None, None, None],
                wcnt_d[i],
            );
        }
    }
    let wcnt_is7 = c::eq_const(&mut nl, &wcnt, 7);
    let block_end = c::and2(&mut nl, wr_data, wcnt_is7);
    let not_rst = c::not(&mut nl, rst);

    // Block registers: cur / prev, 8 rows x 32 bits. Reset does NOT clear
    // them — blocks_done gates outputs until two fresh blocks have been
    // streamed, so stale pixels are never observable (saves ~770 LUTs of
    // clear gating; the behavioural model matches this choice).
    let mut cur: Vec<Bus> = Vec::new();
    for r in 0..8u64 {
        let hit = c::eq_const(&mut nl, &wcnt, r);
        let ce = c::and2(&mut nl, wr_data, hit);
        cur.push(c::register(&mut nl, &din, Some(ce)));
    }
    // prev[r] <= (r == 7 ? din : cur[r]) at block_end.
    let mut prev: Vec<Bus> = Vec::new();
    for (r, cur_row) in cur.iter().enumerate() {
        let src: Bus = if r == 7 { din.clone() } else { cur_row.clone() };
        prev.push(c::register(&mut nl, &src, Some(block_end)));
    }

    // blocks_done: saturating 2-bit counter with synchronous reset.
    let bd_ce = c::or2(&mut nl, block_end, rst);
    let bd_d: Bus = (0..2).map(|_| nl.net()).collect();
    let bd: Bus = bd_d.iter().map(|&d| nl.ff(d, false, Some(bd_ce))).collect();
    let ready = bd[1]; // counts 0,1,2 → bit 1 set at 2
    {
        // next = rst ? 0 : min(bd+1, 2): bd0' = !bd1 & !bd0; bd1' = bd0|bd1.
        let n0 = {
            let nor = nl.lut(
                c::truth4(|a, b, _, _| !a && !b),
                [Some(bd[0]), Some(bd[1]), None, None],
            );
            c::and2(&mut nl, nor, not_rst)
        };
        let n1 = {
            let or = c::or2(&mut nl, bd[0], bd[1]);
            c::and2(&mut nl, or, not_rst)
        };
        nl.lut_into(
            c::truth4(|a, _, _, _| a),
            [Some(n0), None, None, None],
            bd_d[0],
        );
        nl.lut_into(
            c::truth4(|a, _, _, _| a),
            [Some(n1), None, None, None],
            bd_d[1],
        );
    }

    // Sliding window register per row: 44 columns of [prev2 | prev] in
    // column order. Loaded at block_end with the *post-promotion* contents
    // (new prev2 = current prev, new prev = {cur rows 0..6, din}), shifted
    // left by 4 columns on every other data write. The live window slice is
    // always columns 0..11 — no wide muxes needed.
    // Column c of a block word is bus bit 31-c (big-endian pixel order).
    let mut slice: Vec<Bus> = Vec::new();
    for r in 0..8 {
        let load: Bus = (0..44)
            .map(|cidx| {
                if cidx < 32 {
                    prev[r][31 - cidx]
                } else {
                    let col = cidx - 32;
                    if r < 7 {
                        cur[r][31 - col]
                    } else {
                        din[31 - col]
                    }
                }
            })
            .collect();
        let d: Bus = (0..44).map(|_| nl.net()).collect();
        let q: Bus = d
            .iter()
            .map(|&dd| nl.ff(dd, false, Some(wr_data)))
            .collect();
        for cidx in 0..44 {
            let shifted = if cidx + 4 < 44 { q[cidx + 4] } else { zero };
            let sel = c::mux2(&mut nl, shifted, load[cidx], block_end);
            nl.lut_into(
                c::truth4(|a, _, _, _| a),
                [Some(sel), None, None, None],
                d[cidx],
            );
        }
        slice.push(q[..11].to_vec());
    }

    // Four window counts (window j uses slice bits j..j+8 per row).
    let mut packed: Bus = Vec::new();
    let mut counts: Vec<Bus> = Vec::new();
    for j in 0..4 {
        // Row popcounts.
        let mut rowcounts: Vec<Bus> = Vec::new();
        for (r, row_slice) in slice.iter().enumerate() {
            let eqs: Bus = (0..8)
                .map(|k| {
                    let pbit = pattern[r][k];
                    c::xnor2(&mut nl, row_slice[j + k], pbit)
                })
                .collect();
            rowcounts.push(c::popcount(&mut nl, &eqs));
        }
        // Sum the eight 4-bit row counts into a 7-bit total.
        let mut acc: Bus = rowcounts[0].clone();
        for rc in &rowcounts[1..] {
            let width = acc.len().max(rc.len()) + 1;
            let mut ea = acc.clone();
            let mut eb = rc.clone();
            ea.resize(width, zero);
            eb.resize(width, zero);
            let (s, _) = c::adder(&mut nl, &ea, &eb, zero);
            acc = s;
        }
        acc.truncate(7);
        counts.push(acc);
    }
    // packed = c0<<24 | c1<<16 | c2<<8 | c3, LSB-first bus.
    for j in (0..4).rev() {
        let mut field = counts[j].clone();
        field.resize(8, zero);
        packed.extend(field);
    }

    // Output queue: 8 x 32 registers, wptr/rptr 3-bit counters.
    let push = c::and2(&mut nl, wr_data, ready);
    let build_ptr = |nl: &mut Netlist, ce_ev: NetId, rst: NetId, not_rst: NetId| -> Bus {
        let d: Bus = (0..3).map(|_| nl.net()).collect();
        let ce = c::or2(nl, ce_ev, rst);
        let q: Bus = d.iter().map(|&dd| nl.ff(dd, false, Some(ce))).collect();
        let one = c::const_bus(nl, 3, 1);
        let zero2 = nl.constant(false);
        let (inc, _) = c::adder(nl, &q, &one, zero2);
        for i in 0..3 {
            let sel = c::mux2(nl, q[i], inc[i], ce_ev);
            let cleared = c::and2(nl, sel, not_rst);
            nl.lut_into(
                c::truth4(|a, _, _, _| a),
                [Some(cleared), None, None, None],
                d[i],
            );
        }
        q
    };
    let wptr = build_ptr(&mut nl, push, rst, not_rst);
    let rptr = build_ptr(&mut nl, rd, rst, not_rst);
    let mut qregs: Vec<Bus> = Vec::new();
    for s in 0..8u64 {
        let hit = c::eq_const(&mut nl, &wptr, s);
        let ce = c::and2(&mut nl, push, hit);
        qregs.push(c::register(&mut nl, &packed, Some(ce)));
    }
    let rsel: [NetId; 3] = [rptr[0], rptr[1], rptr[2]];
    let dout: Bus = (0..32)
        .map(|i| {
            let cands: [NetId; 8] = std::array::from_fn(|s| qregs[s][i]);
            mux8(&mut nl, &cands, &rsel)
        })
        .collect();
    nl.output_bus("dout", &dout);
    // valid = wptr != rptr (queue non-empty; 8-deep never wraps past full
    // in the driver protocol).
    let neq: Vec<NetId> = (0..3).map(|i| c::xor2(&mut nl, wptr[i], rptr[i])).collect();
    let valid = c::or_tree(&mut nl, &neq);
    nl.output("valid", 0, valid);
    nl
}

/// Builds the placed component (for area checks and BitLinker loading).
pub fn patmatch_component(width: u16, height: u16) -> vp2_bitstream::Component {
    let nl = patmatch_netlist();
    build_component(nl, 32, width, height)
}

/// Shared helper: wraps a dock-protocol netlist into a relocatable
/// component with the standard dock macros.
pub fn build_component(
    nl: Netlist,
    bus_width: u16,
    region_w: u16,
    region_h: u16,
) -> vp2_bitstream::Component {
    let name = nl.name.clone();
    try_build_component(nl, bus_width, region_w, region_h)
        .unwrap_or_else(|| panic!("{name}: does not place in {region_w}×{region_h} CLBs"))
}

/// [`build_component`] for footprints that may legitimately not fit —
/// sub-slot registration sizes components to a fraction of the region,
/// and a kernel too large for the slot falls back to software instead of
/// panicking. `None` when the netlist cannot be placed in the footprint.
pub fn try_build_component(
    mut nl: Netlist,
    bus_width: u16,
    region_w: u16,
    region_h: u16,
) -> Option<vp2_bitstream::Component> {
    // The netlists above declare their own din/wr/... ports directly; the
    // bus macros are added as pass-through pins on top (component-private
    // LUTs pinned at the agreed sites would double every port net, so for
    // area/bitstream purposes we account the macro LUTs separately).
    let dm = DockMacros::for_width(bus_width);
    let mut placer = AutoPlacer::new();
    // Account the macro pass-through LUTs: one pinned LUT per signal fed by
    // a constant (the real macro drives them from the port nets; for the
    // configuration image only the LUT sites and truth tables matter).
    let id = c::truth4(|a, _, _, _| a);
    let zero = nl.constant(false);
    for m in [&dm.write, &dm.read, &dm.strobe] {
        for &site in &m.sites {
            let out = nl.net();
            let cell = nl.lut_into(id, [Some(zero), None, None, None], out);
            placer.pin_lut(cell, site);
            // Keep the net alive via a throwaway output port.
        }
    }
    let name = nl.name.clone();
    let placement = placer.place(&nl, region_w, region_h).ok()?;
    Some(
        vp2_bitstream::Component::new(name, nl, placement, vec![dm.write, dm.read, dm.strobe])
            .expect("netlist valid"),
    )
}

// ---------------------------------------------------------------------
// Software implementation (PPC assembly) and drivers.
// ---------------------------------------------------------------------

/// The naive per-pixel software implementation (see module docs).
pub(crate) const SW_ASM: &str = r#"
    # args: r3 = W, r4 = H, r5 = img, r6 = pattern, r7 = out (byte grid)
entry:
    srwi r15, r3, 5          ; words per row
    addi r26, r3, -7         ; W - 7
    addi r27, r4, -7         ; H - 7
    li   r8, 0               ; y
yloop:
    li   r9, 0               ; x
xloop:
    li   r12, 0              ; cnt
    li   r10, 0              ; r
rloop:
    add   r17, r8, r10       ; y + r
    mullw r13, r17, r15      ; row word base (the 2-D index multiply a
                             ; compiler hoists out of the innermost loop)
    li   r11, 0              ; j
jloop:
    add   r16, r9, r11       ; x + j
    srwi  r14, r16, 5
    add   r19, r13, r14
    slwi  r19, r19, 2
    lwzx  r19, r5, r19       ; image word
    andi  r14, r16, 31
    li    r18, 31
    sub   r14, r18, r14
    srw   r19, r19, r14
    andi  r19, r19, 1        ; image bit
    lbzx  r14, r6, r10       ; pattern row byte
    li    r18, 7
    sub   r18, r18, r11
    srw   r14, r14, r18
    andi  r14, r14, 1        ; pattern bit
    cmpw  r19, r14
    bne   jnext
    addi  r12, r12, 1
jnext:
    addi  r11, r11, 1
    cmpwi r11, 8
    blt   jloop
    addi  r10, r10, 1
    cmpwi r10, 8
    blt   rloop
    mullw r13, r8, r26
    add   r13, r13, r9
    stbx  r12, r7, r13
    addi  r9, r9, 1
    cmpw  r9, r26
    blt   xloop
    addi  r8, r8, 1
    cmpw  r8, r27
    blt   yloop
    halt
"#;

/// Hand-optimised software variant (the DESIGN.md ablation): row-wise
/// window extraction with word loads and a 256-entry popcount table,
/// instead of per-pixel bit extraction. What a performance programmer
/// would write — quantifies how much of the headline speedup is owed to
/// the naive baseline.
/// args: r3 = W, r4 = H, r5 = img, r6 = pattern, r7 = out, r8 = table.
const SW_OPT_ASM: &str = r#"
entry:
    srwi r15, r3, 5          ; words per row
    addi r26, r3, -7
    addi r27, r4, -7
    li   r9, 0               ; y
oyloop:
    mullw r28, r9, r15
    slwi r28, r28, 2
    add  r28, r28, r5        ; row-y base pointer (hoisted)
    li   r10, 0              ; x
oxloop:
    li   r12, 0              ; matches
    li   r11, 0              ; r
orloop:
    mullw r13, r11, r15
    slwi r13, r13, 2
    add  r13, r13, r28       ; row (y+r) base
    srwi r14, r10, 5
    slwi r14, r14, 2
    add  r14, r14, r13
    lwz  r16, 0(r14)         ; word holding column x
    lwz  r17, 4(r14)         ; spill word
    andi r18, r10, 31
    slw  r16, r16, r18
    srwi r17, r17, 1         ; two-step shift: avoids the sh=32 case
    li   r19, 31
    sub  r19, r19, r18
    srw  r17, r17, r19
    or   r16, r16, r17
    srwi r16, r16, 24        ; the 8-pixel window row
    lbzx r17, r6, r11
    xor  r16, r16, r17       ; mismatch bits
    lbzx r16, r8, r16        ; popcount via table
    addi r12, r12, 8
    sub  r12, r12, r16       ; matches += 8 - mismatches
    addi r11, r11, 1
    cmpwi r11, 8
    blt  orloop
    mullw r13, r9, r26
    add  r13, r13, r10
    stbx r12, r7, r13
    addi r10, r10, 1
    cmpw r10, r26
    blt  oxloop
    addi r9, r9, 1
    cmpw r9, r27
    blt  oyloop
    halt
"#;

/// Runs the optimised software variant; returns `(time, counts)`.
pub fn sw_run_optimized(
    m: &mut Machine,
    img: &BinaryImage,
    pattern: &[u8; 8],
) -> (SimTime, Vec<Vec<u8>>) {
    harness::store_words(m, SRC_A, &img.data);
    harness::store_bytes(m, SRC_B, pattern);
    let table: Vec<u8> = (0..=255u16).map(|v| v.count_ones() as u8).collect();
    harness::store_bytes(m, harness::AUX, &table);
    let (w, h) = (img.width as u32, img.height as u32);
    let max = u64::from(w) * u64::from(h) * 600 + 100_000;
    let (t, _) = run_asm(m, SW_OPT_ASM, &[w, h, SRC_A, SRC_B, DST, harness::AUX], max);
    let out = harness::load_bytes(m, DST, (img.width - 7) * (img.height - 7));
    let counts = out.chunks(img.width - 7).map(<[u8]>::to_vec).collect();
    (t, counts)
}

/// The hardware driver: streams bands through the dock.
pub(crate) const HW_ASM: &str = r#"
    # args: r3 = bands (H-7), r4 = B (W/32), r5 = img, r6 = pattern,
    #       r7 = out (packed result words)
entry:
    lis  r20, 0x8000         ; dock
    # load the 8 pattern rows
    li   r10, 0
patloop:
    lbzx r11, r6, r10
    slwi r12, r10, 24
    or   r12, r12, r11
    lis  r13, 0x1000
    or   r12, r12, r13
    stw  r12, 4(r20)         ; CMD_PATTERN
    addi r10, r10, 1
    cmpwi r10, 8
    blt  patloop

    slwi r21, r4, 2          ; row stride bytes
    mr   r22, r5             ; band base pointer
    mr   r23, r7             ; out cursor
    li   r8, 0               ; band index
bandloop:
    lis  r12, 0x2000
    stw  r12, 4(r20)         ; CMD_RESET
    li   r9, 0               ; block index
blockloop:
    cmpw r9, r4
    bge  zeroblock
    slwi r13, r9, 2
    add  r13, r13, r22       ; &img[band_row][block]
    li   r10, 0
rowloop:
    lwz  r12, 0(r13)
    stw  r12, 0(r20)         ; data word into the region
    add  r13, r13, r21
    addi r10, r10, 1
    cmpwi r10, 8
    blt  rowloop
    b    reads
zeroblock:
    li   r10, 0
zrow:
    stw  r0, 0(r20)          ; flush with zero blocks
    addi r10, r10, 1
    cmpwi r10, 8
    blt  zrow
reads:
    cmpwi r9, 2
    blt  noread
    li   r10, 0
readloop:
    lwz  r12, 0(r20)         ; packed 4-count result word
    stw  r12, 0(r23)
    addi r23, r23, 4
    addi r10, r10, 1
    cmpwi r10, 8
    blt  readloop
noread:
    addi r9, r9, 1
    addi r14, r4, 2
    cmpw r9, r14
    blt  blockloop
    add  r22, r22, r21
    addi r8, r8, 1
    cmpw r8, r3
    blt  bandloop
    halt
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{compare, Driver, Request, Work};
    use dock::GateLevelModule;
    use rtr_core::SystemKind;

    const PATTERN: [u8; 8] = [0b1010_1010, 0xFF, 0x00, 0x81, 0x42, 0x24, 0x18, 0x5A];

    /// Pattern bit: row `r`, column `j` → bit `7 - j` of byte `r`.
    fn pattern_bit(pattern: &[u8; 8], r: usize, j: usize) -> bool {
        (pattern[r] >> (7 - j)) & 1 == 1
    }

    /// The per-pixel oracle: compares every pixel of every window.
    fn naive_counts(img: &BinaryImage, pattern: &[u8; 8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for y in 0..=img.height - 8 {
            let mut row = Vec::new();
            for x in 0..=img.width - 8 {
                let mut cnt = 0u8;
                for r in 0..8 {
                    for j in 0..8 {
                        if img.pixel(x + j, y + r) == pattern_bit(pattern, r, j) {
                            cnt += 1;
                        }
                    }
                }
                row.push(cnt);
            }
            out.push(row);
        }
        out
    }

    #[test]
    fn reference_matches_the_per_pixel_oracle() {
        let mut rng = SplitMix64::new(0x0AC1E);
        for width in [32, 64, 96, 128] {
            for height in 8..=40 {
                // Every image kind meets every pattern kind at each width.
                let mut img = BinaryImage::random(width, height, rng.next_u64());
                match height % 3 {
                    0 => {}
                    fill => img.data.fill(if fill == 1 { 0 } else { u32::MAX }),
                }
                let pattern: [u8; 8] = match (height / 3) % 3 {
                    0 => std::array::from_fn(|_| rng.next_u32() as u8),
                    1 => [0; 8],
                    _ => [0xFF; 8],
                };
                assert_eq!(
                    match_counts_reference(&img, &pattern),
                    naive_counts(&img, &pattern),
                    "{width}x{height} pattern {pattern:02x?}"
                );
            }
        }
    }

    #[test]
    fn window_count_matches_a_per_pixel_count_at_every_column() {
        let mut rng = SplitMix64::new(0xB10C);
        for _ in 0..64 {
            let mut module = PatMatchModule::new();
            module.pattern = std::array::from_fn(|_| rng.next_u32() as u8);
            module.prev2 = std::array::from_fn(|_| rng.next_u32());
            module.prev = std::array::from_fn(|_| rng.next_u32());
            for p in 0..32 {
                let mut want = 0u8;
                for r in 0..8 {
                    for j in 0..8 {
                        let col = p + j;
                        let word = if col < 32 {
                            module.prev2[r]
                        } else {
                            module.prev[r]
                        };
                        let bit = (word >> (31 - col % 32)) & 1 == 1;
                        if bit == pattern_bit(&module.pattern, r, j) {
                            want += 1;
                        }
                    }
                }
                assert_eq!(module.window_count(p), want, "p = {p}");
            }
        }
    }

    #[test]
    fn reference_self_match_is_64() {
        // An image equal to the tiled pattern matches perfectly at (0,0).
        let mut img = BinaryImage::new(32, 9);
        for y in 0..8 {
            for x in 0..8 {
                img.set_pixel(x, y, pattern_bit(&PATTERN, y, x));
            }
        }
        let counts = match_counts_reference(&img, &PATTERN);
        assert_eq!(counts[0][0], 64);
        // Inverted pattern: complement the window → 0 matches.
        let inv: [u8; 8] = std::array::from_fn(|i| !PATTERN[i]);
        let counts = match_counts_reference(&img, &inv);
        assert_eq!(counts[0][0], 0);
    }

    #[test]
    fn pixel_accessors() {
        let mut img = BinaryImage::new(64, 8);
        img.set_pixel(33, 5, true);
        assert!(img.pixel(33, 5));
        assert!(!img.pixel(32, 5));
        img.set_pixel(33, 5, false);
        assert!(!img.pixel(33, 5));
    }

    /// Drives a module through the band protocol in pure Rust (no machine)
    /// and returns the counts.
    fn drive_protocol(
        module: &mut dyn DynamicModule,
        img: &BinaryImage,
        pattern: &[u8; 8],
    ) -> Vec<Vec<u8>> {
        for (r, &byte) in pattern.iter().enumerate() {
            module.poke_at(
                4,
                u64::from(CMD_PATTERN | (r as u32) << 24 | u32::from(byte)),
            );
        }
        let blocks = img.width / 32;
        let bands = img.height - 7;
        let wpr = img.words_per_row();
        let mut counts = vec![vec![0u8; img.width - 7]; bands];
        for (y, band) in counts.iter_mut().enumerate() {
            module.poke_at(4, u64::from(CMD_RESET));
            for b in 0..blocks + 2 {
                for r in 0..8 {
                    let w = if b < blocks {
                        img.data[(y + r) * wpr + b]
                    } else {
                        0
                    };
                    module.poke_at(0, u64::from(w));
                }
                if b >= 2 {
                    for w in 0..8 {
                        let word = module.read_at(0) as u32;
                        for k in 0..4 {
                            let x = 32 * (b - 2) + 4 * w + k;
                            if x < band.len() {
                                band[x] = ((word >> (24 - 8 * k)) & 0xFF) as u8;
                            }
                        }
                    }
                }
            }
        }
        counts
    }

    #[test]
    fn behavioural_module_matches_reference() {
        let img = BinaryImage::random(96, 12, 0xFEED);
        let mut module = PatMatchModule::new();
        let got = drive_protocol(&mut module, &img, &PATTERN);
        assert_eq!(got, naive_counts(&img, &PATTERN));
    }

    #[test]
    fn gate_level_matches_behavioural() {
        let nl = patmatch_netlist();
        let mut gate = GateLevelModule::new(&nl).unwrap();
        let mut beh = PatMatchModule::new();
        let img = BinaryImage::random(64, 10, 42);
        let got_gate = drive_protocol(&mut gate, &img, &PATTERN);
        let got_beh = drive_protocol(&mut beh, &img, &PATTERN);
        assert_eq!(got_gate, got_beh);
        assert_eq!(got_beh, match_counts_reference(&img, &PATTERN));
    }

    #[test]
    fn netlist_fits_the_32bit_region() {
        let comp = patmatch_component(28, 11);
        // 28 x 11 CLBs = 1232 slices; the matcher must fit (it ran on the
        // 32-bit system in the paper).
        assert!(comp.slices_used() <= 1232, "{} slices", comp.slices_used());
    }

    #[test]
    fn optimized_sw_matches_reference_and_is_faster() {
        let img = BinaryImage::random(64, 14, 11);
        let req = Request::from(Work::PatMatch {
            image: img.clone(),
            pattern: PATTERN,
        });
        let mut m = rtr_core::build_system(SystemKind::Bit32);
        let (t_naive, counts) = Driver::new().run_sw(&mut m, &req);
        assert_eq!(counts, req.reference());
        let mut m = rtr_core::build_system(SystemKind::Bit32);
        let (t_opt, counts) = sw_run_optimized(&mut m, &img, &PATTERN);
        assert_eq!(counts, match_counts_reference(&img, &PATTERN));
        assert!(
            t_opt.as_ps() * 3 < t_naive.as_ps(),
            "table-driven sw should be >3x faster: {t_opt} vs {t_naive}"
        );
    }

    #[test]
    fn speedup_is_large_on_the_32bit_system() {
        let req = Request::from(Work::PatMatch {
            image: BinaryImage::random(64, 16, 3),
            pattern: PATTERN,
        });
        let cmp = compare(SystemKind::Bit32, &req);
        assert!(
            cmp.speedup() > 10.0,
            "expected a large speedup, got {:.1} (sw {}, hw {})",
            cmp.speedup(),
            cmp.sw,
            cmp.hw
        );
    }
}
