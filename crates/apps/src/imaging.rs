//! Grayscale image-processing tasks (paper tables 5 and 12).
//!
//! Three 8-bit-pixel tasks:
//!
//! * **Brightness adjustment** — saturating add of a signed constant;
//!   4 pixels per 32-bit transfer (8 per 64-bit DMA beat — "the 64-bit data
//!   transfers could be employed without additional work, since only one
//!   image is involved").
//! * **Additive blending** — `sat(A + B)`; each transfer carries 2 pixels
//!   from each source, the module emits 2 pixels and packs results in
//!   groups of 4 "to save on read operations".
//! * **Fade effect** — `(A − B) × f + B` with an 8-bit blend factor.
//!
//! The last two need the CPU to combine the two source images before the
//! data reaches the dynamic region; on the 64-bit system's DMA path this
//! becomes an explicit **data-preparation** pass over memory (the paper
//! reports it as its own column in table 12).

use crate::harness::{self, bind, run_asm, set_fifo_capture, AUX, DST, SRC_A, SRC_B};
use dock::{DynamicModule, ModuleOutput};
use rtr_core::machine::Machine;
use vp2_netlist::components as c;
use vp2_netlist::graph::{Bus, Netlist};
use vp2_sim::{SimTime, SplitMix64};

/// Which of the three tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Saturating add of a signed constant.
    Brightness,
    /// Saturating add of two images.
    Blend,
    /// `(A − B) × f + B`.
    Fade,
}

impl Task {
    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            Task::Brightness => "brightness adjustment",
            Task::Blend => "additive blending",
            Task::Fade => "fade effect",
        }
    }

    /// Does the task combine two source images (and therefore require CPU
    /// data preparation on the DMA path)?
    pub fn two_sources(self) -> bool {
        !matches!(self, Task::Brightness)
    }
}

/// Reference per-pixel semantics.
pub fn reference_pixel(task: Task, a: u8, b: u8, param: i32) -> u8 {
    match task {
        Task::Brightness => (i32::from(a) + param).clamp(0, 255) as u8,
        Task::Blend => (u32::from(a) + u32::from(b)).min(255) as u8,
        Task::Fade => {
            // (A - B) * f + B with f in [0, 256] as an 8.8 fixed-point
            // fraction; exact integer form used by both sw and hw.
            let f = param as u32 & 0x1FF;
            let diff = i32::from(a) - i32::from(b);
            let scaled = (diff * f as i32) >> 8;
            (i32::from(b) + scaled).clamp(0, 255) as u8
        }
    }
}

/// Reference over whole images (`b` is zero-filled where it is shorter
/// than `a`). One loop per task: the match on `task` stays outside it.
pub fn reference_image(task: Task, a: &[u8], b: &[u8], param: i32) -> Vec<u8> {
    fn each(a: &[u8], b: &[u8], f: impl Fn(u8, u8) -> u8) -> Vec<u8> {
        let n = a.len().min(b.len());
        let pairs = a[..n].iter().zip(&b[..n]).map(|(&x, &y)| f(x, y));
        pairs.chain(a[n..].iter().map(|&x| f(x, 0))).collect()
    }
    match task {
        Task::Brightness => each(a, b, |x, y| reference_pixel(Task::Brightness, x, y, param)),
        Task::Blend => each(a, b, |x, y| reference_pixel(Task::Blend, x, y, param)),
        Task::Fade => each(a, b, |x, y| reference_pixel(Task::Fade, x, y, param)),
    }
}

// ---------------------------------------------------------------------
// Hardware modules (behavioural).
// ---------------------------------------------------------------------

/// Behavioural imaging module. Protocol:
/// * offset 4 write: set the parameter (brightness constant as a 9-bit
///   two's-complement value; fade factor f).
/// * offset 0 write (brightness): N pixels in, N pixels out, valid always —
///   every byte lane processed independently (4 lanes for CPU stores,
///   8 for DMA beats).
/// * offset 0 write (blend/fade): lanes are A0 A1 B0 B1 (32-bit) or
///   A0..A3 B0..B3 (64-bit); produces 2 (or 4) result pixels, packed into
///   an output register that is flagged valid every second write, holding
///   4 (or 8) packed pixels.
#[derive(Debug, Clone)]
pub struct ImagingModule {
    task: Task,
    /// 8-lane (64-bit DMA) vs 4-lane (32-bit CPU) build of the module.
    wide: bool,
    param: i32,
    phase: bool,
    out: u64,
    out_valid: bool,
}

impl ImagingModule {
    /// New 32-bit-channel module for a task.
    pub fn new(task: Task) -> Self {
        ImagingModule {
            task,
            wide: false,
            param: 0,
            phase: false,
            out: 0,
            out_valid: false,
        }
    }

    /// New 64-bit-channel (DMA) module.
    pub fn new_wide(task: Task) -> Self {
        ImagingModule {
            wide: true,
            ..ImagingModule::new(task)
        }
    }

    fn process_lanes(&self, data: u64, lanes: usize) -> u64 {
        let mut out = 0u64;
        match self.task {
            Task::Brightness => {
                for i in 0..lanes {
                    let px = ((data >> (8 * i)) & 0xFF) as u8;
                    out |= u64::from(reference_pixel(self.task, px, 0, self.param)) << (8 * i);
                }
            }
            Task::Blend | Task::Fade => {
                // Byte-position (big-endian) layout: the high half of the
                // transfer carries the A pixels in memory order, the low
                // half the B pixels; results are produced in memory order
                // in the low half.
                let bits = 8 * lanes as u64;
                let half = lanes / 2;
                for i in 0..half {
                    let a = ((data >> (bits - 8 - 8 * i as u64)) & 0xFF) as u8;
                    let b = ((data >> (bits / 2 - 8 - 8 * i as u64)) & 0xFF) as u8;
                    out |= u64::from(reference_pixel(self.task, a, b, self.param))
                        << (bits / 2 - 8 - 8 * i as u64);
                }
            }
        }
        out
    }
}

impl DynamicModule for ImagingModule {
    fn name(&self) -> &str {
        match self.task {
            Task::Brightness => "img-brightness",
            Task::Blend => "img-blend",
            Task::Fade => "img-fade",
        }
    }

    fn poke(&mut self, data: u64) -> ModuleOutput {
        self.poke_at(0, data)
    }

    fn poke_at(&mut self, offset: u32, data: u64) -> ModuleOutput {
        if offset == 4 {
            self.param = (data as u32 as i32) << 23 >> 23; // sign-extend 9 bits
            self.phase = false;
            self.out_valid = false;
            return ModuleOutput {
                data: self.out,
                valid: false,
            };
        }
        let lanes = if self.wide { 8 } else { 4 };
        let _ = offset;
        match self.task {
            Task::Brightness => {
                self.out = self.process_lanes(data, lanes);
                self.out_valid = true;
            }
            Task::Blend | Task::Fade => {
                // Half-width result lands in the low output register on the
                // first write of a pair, the high one on the second (exactly
                // the two CE-gated registers of the gate-level design).
                let res = self.process_lanes(data, lanes);
                let half_bits = 8 * (lanes as u64 / 2);
                let low_mask = (1u64 << half_bits) - 1;
                if self.phase {
                    self.out = (self.out & !low_mask) | res;
                    self.out_valid = true;
                    self.phase = false;
                } else {
                    self.out = (self.out & low_mask) | (res << half_bits);
                    self.out_valid = false;
                    self.phase = true;
                }
            }
        }
        ModuleOutput {
            data: self.out,
            valid: self.out_valid,
        }
    }

    fn peek(&self) -> u64 {
        self.out
    }

    fn reset(&mut self) {
        *self = ImagingModule::new(self.task);
    }
}

// ---------------------------------------------------------------------
// Gate-level netlists (32-bit variants, for area and equivalence).
// ---------------------------------------------------------------------

/// Builds the 32-bit-channel gate-level netlist for a task.
/// Ports: `din[32]`, `wr`, `addr[1]`, `dout[32]`, `valid`.
pub fn imaging_netlist(task: Task) -> Netlist {
    let name = match task {
        Task::Brightness => "img-brightness",
        Task::Blend => "img-blend",
        Task::Fade => "img-fade",
    };
    let mut nl = Netlist::new(name);
    let din = nl.input_bus("din", 32);
    let wr = nl.input("wr", 0);
    let addr = nl.input("addr", 0);
    let zero = nl.constant(false);

    let is_cmd = addr;
    let not_cmd = c::not(&mut nl, is_cmd);
    let wr_data = c::and2(&mut nl, wr, not_cmd);
    let wr_cmd = c::and2(&mut nl, wr, is_cmd);

    // Parameter register (9 bits, two's complement).
    let param = c::register(&mut nl, &din[..9], Some(wr_cmd));

    let lane = |_nl: &mut Netlist, i: usize| -> Bus { din[8 * i..8 * i + 8].to_vec() };

    let (result, result_width): (Bus, usize) = match task {
        Task::Brightness => {
            let mut out = Vec::new();
            for i in 0..4 {
                let px = lane(&mut nl, i);
                let r = c::saturating_add_signed(&mut nl, &px, &param);
                out.extend(r);
            }
            (out, 32)
        }
        Task::Blend => {
            // Byte-position lanes: A pair in bits 31:16, B pair in 15:0;
            // results in memory order, LSB-first bus = [res1, res0].
            let mut out = Vec::new();
            // LSB-first result bus = [res(A1,B1), res(A0,B0)] so the packed
            // output word reads [r0 r1 r2 r3] in memory order.
            for i in [2usize, 3] {
                let a = lane(&mut nl, i);
                let b = lane(&mut nl, i - 2);
                out.extend(c::saturating_add_unsigned(&mut nl, &a, &b));
            }
            (out, 16)
        }
        Task::Fade => {
            let mut out = Vec::new();
            for i in [2usize, 3] {
                let a = lane(&mut nl, i);
                let b = lane(&mut nl, i - 2);
                // diff = a - b (9-bit signed), scaled = diff * f >> 8,
                // out = clamp(b + scaled).
                let mut ea: Bus = a.clone();
                ea.push(zero);
                let mut eb: Bus = b.clone();
                eb.push(zero);
                let (diff, _) = c::subtractor(&mut nl, &ea, &eb); // 9-bit two's complement
                                                                  // Multiply |diff| is messy; multiply sign-extended diff by f
                                                                  // using 17-bit x 9-bit two's-complement via sign-extension
                                                                  // to 18 bits and an unsigned multiplier (f ≥ 0).
                let sign = diff[8];
                let ext: Bus = (0..18)
                    .map(|k| if k < 9 { diff[k] } else { sign })
                    .collect();
                let prod = c::multiplier(&mut nl, &ext, &param); // 27 bits
                                                                 // scaled = prod >> 8, take 10 bits (signed).
                let scaled: Bus = (8..18).map(|k| prod[k]).collect();
                // sum = b + scaled (11-bit signed).
                let mut eb2: Bus = b.clone();
                for _ in 0..3 {
                    eb2.push(zero);
                }
                let mut es: Bus = scaled.clone();
                es.push(scaled[9]);
                let (sum, _) = c::adder(&mut nl, &eb2, &es, zero);
                // clamp to [0, 255]: negative → 0; >255 → 255.
                let neg = sum[10];
                let not_neg = c::not(&mut nl, neg);
                let hi = c::or2(&mut nl, sum[8], sum[9]);
                let ovf = c::and2(&mut nl, hi, not_neg);
                let byte: Bus = (0..8)
                    .map(|k| {
                        let v = c::or2(&mut nl, sum[k], ovf);
                        c::and2(&mut nl, v, not_neg)
                    })
                    .collect();
                out.extend(byte);
            }
            (out, 16)
        }
    };

    // Output register + packing.
    match task {
        Task::Brightness => {
            let out = c::register(&mut nl, &result, Some(wr_data));
            nl.output_bus("dout", &out);
            let valid = nl.ff(wr_data, false, None);
            nl.output("valid", 0, valid);
        }
        Task::Blend | Task::Fade => {
            debug_assert_eq!(result_width, 16);
            // Phase toggles per data write; low half loads in phase 0,
            // high half in phase 1.
            let phase_d = nl.net();
            let phase = nl.ff(phase_d, false, Some(wr_data));
            let nph = c::not(&mut nl, phase);
            nl.lut_into(
                c::truth4(|a, _, _, _| a),
                [Some(nph), None, None, None],
                phase_d,
            );
            let hi_ce = c::and2(&mut nl, wr_data, nph);
            let lo_ce = c::and2(&mut nl, wr_data, phase);
            let lo = c::register(&mut nl, &result, Some(lo_ce));
            let hi = c::register(&mut nl, &result, Some(hi_ce));
            let mut out: Bus = lo;
            out.extend(hi);
            nl.output_bus("dout", &out);
            let valid_now = c::and2(&mut nl, wr_data, phase);
            let valid = nl.ff(valid_now, false, None);
            nl.output("valid", 0, valid);
        }
    }
    nl
}

// ---------------------------------------------------------------------
// Software kernels.
// ---------------------------------------------------------------------

/// Brightness, naive per-pixel C translation with 2-D indexing multiplies.
/// args: r3 = n pixels, r4 = src, r5 = dst, r6 = constant (signed).
/// Brightness: the straightforward 2-D C translation — per pixel, compute
/// `y*W + x` (the index multiply a naive compile emits), load, saturate,
/// store.
/// args: r3 = W, r4 = H, r5 = src, r6 = dst, r7 = constant (signed).
pub(crate) const SW_BRIGHT: &str = r#"
entry:
    li   r8, 0               ; y
yloop:
    li   r9, 0               ; x
xloop:
    mullw r10, r8, r3        ; src[y*W+x] — the 2-D index multiply an
    add  r10, r10, r9        ; unoptimised translation emits per access
    lbzx r11, r5, r10
    add  r11, r11, r7
    cmpwi r11, 0
    bge  bnotneg
    li   r11, 0
    b    bstore
bnotneg:
    cmpwi r11, 255
    ble  bstore
    li   r11, 255
bstore:
    mullw r10, r8, r3        ; dst[y*W+x] — recomputed, as at -O0
    add  r10, r10, r9
    stbx r11, r6, r10
    addi r9, r9, 1
    cmpw r9, r3
    blt  xloop
    addi r8, r8, 1
    cmpw r8, r4
    blt  yloop
    halt
"#;

/// Additive blending (2-D naive). args: r3 = W, r4 = H, r5 = srcA,
/// r6 = srcB, r7 = dst.
pub(crate) const SW_BLEND: &str = r#"
entry:
    li   r8, 0
yloop:
    li   r9, 0
xloop:
    mullw r10, r8, r3        ; a[y*W+x]
    add  r10, r10, r9
    lbzx r11, r5, r10
    mullw r10, r8, r3        ; b[y*W+x]
    add  r10, r10, r9
    lbzx r12, r6, r10
    add  r11, r11, r12
    cmpwi r11, 255
    ble  bstore
    li   r11, 255
bstore:
    mullw r10, r8, r3        ; dst[y*W+x]
    add  r10, r10, r9
    stbx r11, r7, r10
    addi r9, r9, 1
    cmpw r9, r3
    blt  xloop
    addi r8, r8, 1
    cmpw r8, r4
    blt  yloop
    halt
"#;

/// Fade (2-D naive). args: r3 = W, r4 = H, r5 = srcA, r6 = srcB, r7 = dst,
/// r8 = f (0..256).
pub(crate) const SW_FADE: &str = r#"
entry:
    li   r9, 0               ; y
yloop:
    li   r10, 0              ; x
xloop:
    mullw r11, r9, r3        ; a[y*W+x]
    add  r11, r11, r10
    lbzx r12, r5, r11
    mullw r11, r9, r3        ; b[y*W+x]
    add  r11, r11, r10
    lbzx r13, r6, r11
    sub  r14, r12, r13       ; diff (signed)
    mullw r14, r14, r8
    srawi r14, r14, 8
    add  r14, r14, r13
    cmpwi r14, 0
    bge  fnotneg
    li   r14, 0
    b    fstore
fnotneg:
    cmpwi r14, 255
    ble  fstore
    li   r14, 255
fstore:
    mullw r11, r9, r3        ; dst[y*W+x]
    add  r11, r11, r10
    stbx r14, r7, r11
    addi r10, r10, 1
    cmpw r10, r3
    blt  xloop
    addi r9, r9, 1
    cmpw r9, r4
    blt  yloop
    halt
"#;

// ---------------------------------------------------------------------
// Hardware drivers (CPU-controlled, both systems).
// ---------------------------------------------------------------------

/// Brightness hw driver: 4 px per write, read result word back.
/// args: r3 = n words, r4 = src, r5 = dst, r6 = constant (9-bit 2c).
pub(crate) const HW_BRIGHT: &str = r#"
entry:
    lis  r20, 0x8000
    stw  r6, 4(r20)          ; parameter
    li   r8, 0
hloop:
    lwzx r9, r4, r8
    stw  r9, 0(r20)
    lwz  r10, 0(r20)
    stwx r10, r5, r8
    addi r8, r8, 4
    slwi r11, r3, 2
    cmpw r8, r11
    blt  hloop
    halt
"#;

/// Blend/fade hw driver: the CPU combines 2 px from each source into each
/// written word (the combining overhead the paper highlights), reads one
/// packed word of 4 results per two writes.
/// args: r3 = n pixel pairs of words... (r3 = total pixels / 2 = writes),
/// r4 = srcA, r5 = srcB, r6 = dst, r7 = parameter.
pub(crate) const HW_COMBINE: &str = r#"
entry:
    lis  r20, 0x8000
    stw  r7, 4(r20)
    li   r8, 0               ; write index (each write = 2 px per source)
    mr   r9, r4              ; A cursor
    mr   r10, r5             ; B cursor
    mr   r11, r6             ; out cursor
cloop:
    lhz  r12, 0(r9)          ; two A pixels (memory order)
    lhz  r13, 0(r10)         ; two B pixels
    slwi r12, r12, 16
    or   r14, r12, r13       ; A pair high, B pair low
    stw  r14, 0(r20)
    addi r9, r9, 2
    addi r10, r10, 2
    addi r8, r8, 1
    andi r15, r8, 1
    cmpwi r15, 0
    bne  cloop_next          ; only read back every second write
    lwz  r16, 0(r20)         ; 4 packed results, pixel order
    stw  r16, 0(r11)
    addi r11, r11, 4
cloop_next:
    cmpw r8, r3
    blt  cloop
    halt
"#;

/// Brightness on the 64-bit system's DMA path (table 12): block-interleaved
/// DMA with the output FIFO — no data preparation needed.
/// args: r3 = len bytes, r4 = src, r5 = dst, r6 = parameter.
const DMA_BRIGHT: &str = r#"
entry:
    lis  r20, 0x8000
    stw  r6, 4(r20)          ; module parameter
    lis  r8, 0x8001
    stw  r4, 0(r8)           ; DMA_SRC
    stw  r5, 4(r8)           ; DMA_DST
    stw  r3, 8(r8)           ; DMA_LEN
    li   r9, 5               ; start | interleaved
    stw  r9, 12(r8)
poll:
    lwz  r9, 16(r8)
    andi r9, r9, 2
    cmpwi r9, 0
    beq  poll
    li   r9, 1
    stw  r9, 24(r8)
    halt
"#;

/// Blend/fade on the DMA path: the CPU first interleaves the two sources
/// into the staging buffer (the **data preparation** the paper reports as
/// its own column), flushes it, then runs the block-interleaved DMA.
/// args: r3 = n pixels, r4 = srcA, r5 = srcB, r6 = staging, r7 = param,
///       r8 = dst.
const DMA_COMBINE: &str = r#"
entry:
    lis  r20, 0x8000
    stw  r7, 4(r20)
    # --- data preparation: beat = [B word | A word] per 4-pixel group ---
    srwi r9, r3, 2           ; word groups (4 px per source)
    li   r10, 0
prep:
    slwi r11, r10, 2
    lwzx r12, r4, r11        ; A word
    lwzx r13, r5, r11        ; B word
    slwi r14, r10, 3
    add  r16, r6, r14
    stw  r12, 0(r16)         ; A word = high half of the 64-bit beat
    stw  r13, 4(r16)         ; B word = low half
    addi r10, r10, 1
    cmpw r10, r9
    blt  prep
    # flush the staging buffer so the DMA engine sees it
    slwi r9, r3, 1           ; staging bytes = 2n
    li   r10, 0
flsh:
    dcbf (r6)
    addi r6, r6, 32
    addi r10, r10, 32
    cmpw r10, r9
    blt  flsh
    sub  r6, r6, r9          ; restore staging base
prep_done:
    # --- DMA ---
    lis  r9, 0x8001
    stw  r6, 0(r9)           ; SRC = staging
    stw  r8, 4(r9)           ; DST
    slwi r11, r3, 1
    stw  r11, 8(r9)          ; LEN = 2n bytes in
    li   r12, 5
    stw  r12, 12(r9)
poll:
    lwz  r12, 16(r9)
    andi r12, r12, 2
    cmpwi r12, 0
    beq  poll
    li   r12, 1
    stw  r12, 24(r9)
    halt
"#;

/// Data-preparation pass alone (for the table-12 "data preparation"
/// column). Same args as [`DMA_COMBINE`].
const DMA_PREP_ONLY: &str = r#"
entry:
    srwi r9, r3, 2           ; word groups (4 px per source)
    li   r10, 0
prep:
    slwi r11, r10, 2
    lwzx r12, r4, r11        ; A word
    lwzx r13, r5, r11        ; B word
    slwi r14, r10, 3
    add  r16, r6, r14
    stw  r12, 0(r16)         ; A word = high half of the 64-bit beat
    stw  r13, 4(r16)         ; B word = low half
    addi r10, r10, 1
    cmpw r10, r9
    blt  prep
    slwi r9, r3, 1
    li   r10, 0
flsh:
    dcbf (r6)
    addi r6, r6, 32
    addi r10, r10, 32
    cmpw r10, r9
    blt  flsh
    halt
"#;

/// The inputs tables 5 and 12 measure `task` on: two `n`-pixel source
/// images drawn from one seeded stream (A first, then B) and the tables'
/// fixed parameter (brightness −37, fade factor 144). Returns `(a, b, param)`.
pub fn paper_inputs(task: Task, n: usize, seed: u64) -> (Vec<u8>, Vec<u8>, i32) {
    let mut rng = SplitMix64::new(seed);
    let mut a = vec![0u8; n];
    let mut b = vec![0u8; n];
    rng.fill_bytes(&mut a);
    rng.fill_bytes(&mut b);
    let param = match task {
        Task::Brightness => -37,
        Task::Blend => 0,
        Task::Fade => 144,
    };
    (a, b, param)
}

/// Runs the DMA-controlled hardware version on the 64-bit system
/// (table 12). Returns `(total_time, prep_time, result)`.
pub fn dma_run(
    m: &mut Machine,
    task: Task,
    a: &[u8],
    b: &[u8],
    param: i32,
) -> (SimTime, SimTime, Vec<u8>) {
    assert_eq!(a.len() % 8, 0, "DMA path needs 8-pixel multiples");
    bind(m, Box::new(ImagingModule::new_wide(task)));
    set_fifo_capture(m, true);
    harness::store_bytes(m, SRC_A, a);
    if task.two_sources() {
        harness::store_bytes(m, SRC_B, b);
    }
    let n = a.len() as u32;
    let p9 = (param as u32) & 0x1FF;
    let max = u64::from(n) * 60 + 200_000;
    let (t, prep) = match task {
        Task::Brightness => {
            let (t, _) = run_asm(m, DMA_BRIGHT, &[n, SRC_A, DST, p9], max);
            (t, SimTime::ZERO)
        }
        Task::Blend | Task::Fade => {
            // Measure the preparation pass on an identical fresh machine
            // (same data, same caches-cold state).
            let mut mp = rtr_core::build_system(rtr_core::SystemKind::Bit64);
            harness::store_bytes(&mut mp, SRC_A, a);
            harness::store_bytes(&mut mp, SRC_B, b);
            let (prep, _) = run_asm(&mut mp, DMA_PREP_ONLY, &[n, SRC_A, SRC_B, AUX], max);
            let (t, _) = run_asm(m, DMA_COMBINE, &[n, SRC_A, SRC_B, AUX, p9, DST], max);
            (t, prep)
        }
    };
    // Results land in memory in pixel order on every path.
    let out = harness::load_bytes(m, DST, a.len());
    (t, prep, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Driver, Request, Work};
    use dock::GateLevelModule;
    use rtr_core::SystemKind;

    fn rand_image(n: usize, seed: u64) -> Vec<u8> {
        let mut v = vec![0u8; n];
        SplitMix64::new(seed).fill_bytes(&mut v);
        v
    }

    #[test]
    fn reference_pixel_semantics() {
        assert_eq!(reference_pixel(Task::Brightness, 250, 0, 10), 255);
        assert_eq!(reference_pixel(Task::Brightness, 5, 0, -10), 0);
        assert_eq!(reference_pixel(Task::Brightness, 100, 0, 27), 127);
        assert_eq!(reference_pixel(Task::Blend, 200, 100, 0), 255);
        assert_eq!(reference_pixel(Task::Blend, 20, 100, 0), 120);
        assert_eq!(reference_pixel(Task::Fade, 100, 50, 256), 100);
        assert_eq!(reference_pixel(Task::Fade, 100, 50, 0), 50);
        assert_eq!(reference_pixel(Task::Fade, 100, 50, 128), 75);
    }

    #[test]
    fn reference_image_is_reference_pixel_per_pixel() {
        let per_pixel = |task, a: &[u8], b: &[u8], param| -> Vec<u8> {
            let b = |i| b.get(i).copied().unwrap_or(0);
            (0..a.len())
                .map(|i| reference_pixel(task, a[i], b(i), param))
                .collect()
        };
        let (a, b) = (rand_image(300, 3), rand_image(300, 4));
        let cases = (-255..=255)
            .map(|param| (Task::Brightness, param))
            .chain([(Task::Blend, 0), (Task::Blend, -1)])
            // Fade factors with bits above 0x1FF, which both forms mask off.
            .chain((-600..=1200).step_by(7).map(|param| (Task::Fade, param)))
            .chain([(Task::Fade, 0x7FFF_FE80), (Task::Fade, i32::MIN + 0x100)]);
        for (task, param) in cases {
            for b in [&b[..], &b[..123], &[]] {
                assert_eq!(
                    reference_image(task, &a, b, param),
                    per_pixel(task, &a, b, param),
                    "{task:?} param {param} |b| {}",
                    b.len()
                );
            }
        }
    }

    #[test]
    fn behavioural_modules_match_reference_32bit_protocol() {
        for task in [Task::Brightness, Task::Blend, Task::Fade] {
            let a = rand_image(64, 1);
            let b = rand_image(64, 2);
            let param = match task {
                Task::Brightness => -37,
                Task::Blend => 0,
                Task::Fade => 77,
            };
            let want = reference_image(task, &a, &b, param);
            let mut module = ImagingModule::new(task);
            module.poke_at(4, (param as u32 & 0x1FF) as u64);
            let mut got = Vec::new();
            match task {
                Task::Brightness => {
                    for chunk in a.chunks(4) {
                        let mut w = 0u64;
                        for (i, &px) in chunk.iter().enumerate() {
                            w |= u64::from(px) << (8 * i);
                        }
                        let out = module.poke_at(0, w);
                        for i in 0..4 {
                            got.push(((out.data >> (8 * i)) & 0xFF) as u8);
                        }
                    }
                }
                Task::Blend | Task::Fade => {
                    for (ca, cb) in a.chunks(2).zip(b.chunks(2)) {
                        // A pair in the high halfword, B pair low — both in
                        // memory byte order.
                        let w = (u64::from(ca[0]) << 24)
                            | (u64::from(ca[1]) << 16)
                            | (u64::from(cb[0]) << 8)
                            | u64::from(cb[1]);
                        let out = module.poke_at(0, w);
                        if out.valid {
                            for i in 0..4 {
                                got.push(((out.data >> (24 - 8 * i)) & 0xFF) as u8);
                            }
                        }
                    }
                }
            }
            assert_eq!(got, want, "{task:?}");
        }
    }

    #[test]
    fn gate_level_matches_behavioural() {
        for task in [Task::Brightness, Task::Blend, Task::Fade] {
            let nl = imaging_netlist(task);
            let mut gate = GateLevelModule::new(&nl).unwrap();
            let mut beh = ImagingModule::new(task);
            let param: u64 = match task {
                Task::Brightness => (-100i32 as u32 & 0x1FF) as u64,
                Task::Blend => 0,
                Task::Fade => 200,
            };
            gate.poke_at(4, param);
            beh.poke_at(4, param);
            let mut rng = SplitMix64::new(99);
            for _ in 0..200 {
                let w = u64::from(rng.next_u32());
                let g = gate.poke_at(0, w);
                let b = beh.poke_at(0, w);
                assert_eq!(
                    (g.data, g.valid),
                    (b.data & 0xFFFF_FFFF, b.valid),
                    "{task:?} w={w:#x}"
                );
            }
        }
    }

    #[test]
    fn netlists_fit_the_32bit_region() {
        for task in [Task::Brightness, Task::Blend, Task::Fade] {
            let nl = imaging_netlist(task);
            let est = nl.slice_estimate();
            assert!(est <= 1232, "{task:?}: {est} slices");
        }
    }

    #[test]
    fn dma_path_matches_reference() {
        for task in [Task::Brightness, Task::Blend, Task::Fade] {
            let a = rand_image(256, 7);
            let b = rand_image(256, 8);
            let param = match task {
                Task::Brightness => 25,
                Task::Blend => 0,
                Task::Fade => 99,
            };
            let want = reference_image(task, &a, &b, param);
            let mut m = rtr_core::build_system(SystemKind::Bit64);
            let (t, prep, got) = dma_run(&mut m, task, &a, &b, param);
            assert_eq!(got, want, "{task:?}");
            assert!(t > SimTime::ZERO);
            if task.two_sources() {
                assert!(prep > SimTime::ZERO, "{task:?} must report prep time");
                assert!(prep < t, "prep is part of the total");
            } else {
                assert_eq!(prep, SimTime::ZERO);
            }
        }
    }

    #[test]
    fn dma_speedups_follow_the_paper_shape() {
        // Table 12: brightness gains clearly more from DMA (no data
        // preparation) than the two-source tasks; fade beats blend.
        let speedup = |task: Task, seed: u64| {
            let (a, b, param) = paper_inputs(task, 4096, seed);
            let mut m = rtr_core::build_system(SystemKind::Bit64);
            let (hw, _, got) = dma_run(&mut m, task, &a, &b, param);
            assert_eq!(got, reference_image(task, &a, &b, param), "{task:?}");
            let req = Request::from(Work::Imaging { task, a, b, param });
            let mut m = rtr_core::build_system(SystemKind::Bit64);
            let (sw, _) = Driver::new().run_sw(&mut m, &req);
            sw.as_ps() as f64 / hw.as_ps() as f64
        };
        let bright = speedup(Task::Brightness, 21);
        let blend = speedup(Task::Blend, 22);
        let fade = speedup(Task::Fade, 23);
        assert!(bright > blend, "brightness {bright:.2} vs blend {blend:.2}");
        assert!(fade > blend, "fade {fade:.2} vs blend {blend:.2}");
        assert!(bright > 1.5, "brightness {bright:.2}");
    }
}
